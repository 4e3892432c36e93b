module Pattern = Toss_tax.Pattern
module Condition = Toss_tax.Condition
module Embedding = Toss_tax.Embedding
module Witness = Toss_tax.Witness
module Algebra = Toss_tax.Algebra
module Collection = Toss_store.Collection
module Xpath = Toss_store.Xpath
module Tree = Toss_xml.Tree
module Doc = Tree.Doc
module Metrics = Toss_obs.Metrics
module Span = Toss_obs.Span
module Names = Toss_obs.Names

type scan = { scan_label : int; xpath : Xpath.t; est_rows : int option }

type side = Single | Left | Right

type embed_spec = { sub_pattern : Pattern.t; sub_sl : int list; pin_root : bool }

type source = Scans of { scans : scan list; prune : bool } | Compiled of Compile.t

type input = { spec : embed_spec; source : source }

type pairing =
  | Nested_loop
  | Hash of (Condition.term * Condition.term) list
  | Sim of {
      atom : Condition.t;
      lterm : Condition.term;
      rterm : Condition.term;
      scheme : Simjoin.scheme;
    }

type root =
  | Select of input
  | Join of {
      pairing : pairing;
      cross_condition : Condition.t;
      left : input;
      right : input;
    }

type t = { mode : Rewrite.mode; root : root }

let scans t =
  let of_input input =
    match input.source with Scans { scans; _ } -> scans | Compiled _ -> []
  in
  match t.root with
  | Select input -> of_input input
  | Join { left; right; _ } -> of_input left @ of_input right

(* ------------------------- rendering ------------------------------ *)

let side_suffix = function
  | Single -> ""
  | Left -> " side=left"
  | Right -> " side=right"

let labels_str labels = String.concat "," (List.map string_of_int labels)
let cond_str c = Format.asprintf "%a" Condition.pp c
let atom_str (l, r) = cond_str (Condition.Cmp (l, Condition.Eq, r))

let to_string t =
  let buf = Buffer.create 256 in
  let line indent fmt =
    Buffer.add_string buf (String.make indent ' ');
    Printf.ksprintf
      (fun s ->
        Buffer.add_string buf s;
        Buffer.add_char buf '\n')
      fmt
  in
  let render_input indent side { spec; source } =
    let pin = if spec.pin_root then " pin-root" else "" in
    match source with
    | Compiled matcher ->
        line indent "compiled-match%s states=%d sl=[%s]%s" (side_suffix side)
          (Compile.n_states matcher) (labels_str spec.sub_sl) pin;
        List.iter
          (fun (info : Compile.state_info) ->
            line (indent + 2) "state #%d %s: %s" info.Compile.state_label
              (match info.Compile.state_parent with
              | None -> "(root)"
              | Some (parent, Pattern.Pc) -> Printf.sprintf "(pc of #%d)" parent
              | Some (parent, Pattern.Ad) -> Printf.sprintf "(ad of #%d)" parent)
              (match info.Compile.state_pred with
              | [] -> "true"
              | preds -> String.concat "; " preds))
          (Compile.describe matcher)
    | Scans { scans; prune } ->
        line indent "embed%s sl=[%s]%s" (side_suffix side) (labels_str spec.sub_sl) pin;
        let indent = indent + 2 in
        let indent =
          if prune then begin
            line indent "doc-prune labels=[%s]"
              (labels_str (Pattern.labels spec.sub_pattern));
            indent + 2
          end
          else indent
        in
        line indent "candidate-filter%s" (side_suffix side);
        List.iter
          (fun s ->
            line (indent + 2) "scan #%d: %s%s" s.scan_label (Xpath.to_string s.xpath)
              (match s.est_rows with
              | None -> ""
              | Some n -> Printf.sprintf "  (~%d rows)" n))
          scans
  in
  line 0 "plan mode=%s" (match t.mode with Rewrite.Tax -> "tax" | Rewrite.Toss -> "toss");
  (match t.root with
  | Select input -> render_input 0 Single input
  | Join { pairing; cross_condition; left; right } ->
      line 0 "dedup";
      (match pairing with
      | Nested_loop -> line 2 "nested-loop-pair on %s" (cond_str cross_condition)
      | Hash keys ->
          line 2 "hash-pair keys=[%s] recheck %s"
            (String.concat "; " (List.map atom_str keys))
            (cond_str cross_condition)
      | Sim { atom; scheme; _ } ->
          line 2 "sim-pair on %s sig=%s overlap=%s recheck %s" (cond_str atom)
            (Simjoin.scheme_name scheme) (Simjoin.overlap_name scheme)
            (cond_str cross_condition));
      render_input 4 Left left;
      render_input 4 Right right);
  (* drop the trailing newline: callers add their own framing *)
  let s = Buffer.contents buf in
  String.sub s 0 (String.length s - 1)

(* ------------------------- execution ------------------------------ *)

type exec_stats = { n_candidates : int; n_embeddings : int }

let m_pruned = Metrics.histogram "plan.docs.pruned"

(* Deliberate sabotage for the differential harness (lib/check): each
   variant disables one invariant the operators rely on, so `toss check
   --inject-fault` can prove the oracle actually detects a broken
   interpreter. Never set outside tests. *)
type fault =
  | No_fault
  | Hash_no_recheck
  | Prune_first_only
  | No_dedup
  | Compile_skip_descendant_edge
  | Compile_prune_first_node
  | Simjoin_prefix_too_short
  | Simjoin_no_recheck

let fault = ref No_fault

(* Set semantics preserving first-occurrence (document) order. *)
let dedup trees =
  match trees with
  | [] | [ _ ] -> trees
  | _ when !fault = No_dedup -> trees
  | _ ->
      let seen = Hashtbl.create 64 in
      List.filter
        (fun t ->
          if Hashtbl.mem seen t then false
          else begin
            Hashtbl.replace seen t ();
            true
          end)
        trees

(* Hash-partitioning key for one term value. Both evaluators compare
   string values numerically whenever both sides parse as numbers (the
   TOSS evaluator's unit conversions reachable from string-typed values
   are all numeric identities), so mapping every numeric-parsing value
   to a canonical float rendering makes key equality a superset of
   evaluator equality: the hash never drops a pair the nested loop would
   accept, and the full cross-condition recheck discards the rest. *)
let normalize_key s =
  match float_of_string_opt (String.trim s) with
  | Some f -> Printf.sprintf "%.17g" f
  | None -> s

(* One embedding of a join side, with the document it binds into. *)
type side_binding = Doc.t * Embedding.binding

let binding_env ((doc, bind) : side_binding) label =
  match List.assoc_opt label bind with Some n -> Some (doc, n) | None -> None

(* The composite key of one binding, [None] when a key term is unbound —
   an unbound term falsifies its (top-level) equality atom, hence the
   whole cross condition, so such bindings pair with nothing. *)
let key_of env terms =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | t :: rest -> (
        match Condition.term_value env t with
        | None -> None
        | Some v -> go (normalize_key v :: acc) rest)
  in
  go [] terms

let side_name = function Single -> "single" | Left -> "left" | Right -> "right"

(* A span's meta naming the join side it works on; selections carry
   none. *)
let with_side side meta =
  match side with Single -> meta | s -> ("side", side_name s) :: meta

(* What phase ii leaves for one input's document loop: the candidate
   table of its label scans, or the compiled matcher that needs none. *)
type fetched =
  | Candidates of { table : (int * int, Doc.node list) Hashtbl.t; prune : bool }
  | Arena of Compile.t

(* A pairing strategy's candidate filter over the right side: for one
   left binding, the right bindings worth checking, in right-side order
   (so accepted pairs come out exactly as the nested loop would produce
   them); whether each candidate still gets the cross-condition recheck;
   and the counts its [pair] span reports. *)
type filter = {
  candidates : side_binding -> side_binding list;
  recheck : bool;
  report : n_cands:int -> n_results:int -> (string * string) list;
}

let pair_counts ~n_cands ~n_results =
  [ ("pairs", string_of_int n_cands); ("results", string_of_int n_results) ]

let filter_of ~check pairing rights =
  match pairing with
  | Nested_loop ->
      { candidates = (fun _ -> rights); recheck = true; report = pair_counts }
  | Hash keys ->
      let lterms = List.map fst keys and rterms = List.map snd keys in
      let partitions : (string list, side_binding list) Hashtbl.t =
        Hashtbl.create (max 16 (List.length rights))
      in
      List.iter
        (fun r ->
          match key_of (binding_env r) rterms with
          | None -> ()
          | Some k ->
              Hashtbl.replace partitions k
                (r :: Option.value ~default:[] (Hashtbl.find_opt partitions k)))
        rights;
      {
        candidates =
          (fun l ->
            match key_of (binding_env l) lterms with
            | None -> []
            | Some k ->
                List.rev (Option.value ~default:[] (Hashtbl.find_opt partitions k)));
        recheck = !fault <> Hash_no_recheck;
        report = pair_counts;
      }
  | Sim { lterm; rterm; scheme; _ } ->
      let rarr = Array.of_list rights in
      let index =
        Simjoin.build ~check
          ~drop_last_prefix_token:(!fault = Simjoin_prefix_too_short)
          scheme
          (Array.map (fun r -> Condition.term_value (binding_env r) rterm) rarr)
      in
      {
        candidates =
          (fun l ->
            (* unbound: the atom, hence the cross condition, is false;
               probes return ascending build ordinals *)
            match Condition.term_value (binding_env l) lterm with
            | None -> []
            | Some v -> List.map (Array.get rarr) (Simjoin.probe index v));
        recheck = !fault <> Simjoin_no_recheck;
        report =
          (fun ~n_cands ~n_results ->
            [
              ("candidates", string_of_int n_cands);
              ("verified", string_of_int n_results);
              ("indexed", string_of_int (Simjoin.n_indexed index));
              ("fallback", string_of_int (Simjoin.n_fallback index));
              ("results", string_of_int n_results);
            ]);
      }

let strategy_name = function
  | Nested_loop -> "nested-loop"
  | Hash _ -> "hash"
  | Sim _ -> "sim"

let run ?(check = ignore) ~eval ~coll_of plan =
  (* Scans report fetched candidate nodes; compiled matchers report
     arena nodes visited — both feed the same funnel statistic. *)
  let n_candidates = ref 0 and n_embeddings = ref 0 in
  (* Phase ii, per input: every scan in order, each in its own [xpath]
     span (annotated by the store with rows / index hit counts). *)
  let fetch side input =
    match input.source with
    | Compiled matcher -> Arena matcher
    | Scans { scans; prune } ->
        let coll = coll_of side in
        let table = Hashtbl.create 64 in
        List.iter
          (fun s ->
            check ();
            let hits =
              Span.with_
                ~meta:[ ("label", string_of_int s.scan_label) ]
                Names.xpath
                (fun () -> Collection.Snapshot.eval coll s.xpath)
            in
            List.iter
              (fun (doc_id, node) ->
                incr n_candidates;
                let key = (doc_id, s.scan_label) in
                Hashtbl.replace table key
                  (node :: Option.value ~default:[] (Hashtbl.find_opt table key)))
              hits)
          scans;
        Candidates { table; prune }
  in
  (* Phase iii, per input: the side's documents in order, each that can
     match turned into output by [emit doc bindings]. *)
  let side_docs side { spec; _ } fetched emit =
    let coll = coll_of side in
    match fetched with
    | Candidates { table; prune } ->
        let ids = Collection.Snapshot.doc_ids coll in
        (* An embedding binds every label, so a document lacking
           candidates for one cannot contribute. *)
        let ids =
          if not prune then ids
          else
            Span.with_ ~meta:(with_side side []) Names.prune (fun () ->
                let labels = Pattern.labels spec.sub_pattern in
                let kept =
                  List.filter
                    (fun doc_id ->
                      List.for_all (fun label -> Hashtbl.mem table (doc_id, label)) labels)
                    ids
                in
                let kept =
                  match (!fault, kept) with
                  | Prune_first_only, first :: _ :: _ -> [ first ]
                  | _ -> kept
                in
                Span.annotate
                  [
                    ("docs_in", string_of_int (List.length ids));
                    ("docs_out", string_of_int (List.length kept));
                  ];
                Metrics.observe_int m_pruned (List.length ids - List.length kept);
                kept)
        in
        let side_root = spec.sub_pattern.Pattern.root.Pattern.label in
        List.concat_map
          (fun doc_id ->
            check ();
            Span.with_
              ~meta:(with_side side [ ("doc", string_of_int doc_id) ])
              Names.embed
              (fun () ->
                let doc = Collection.Snapshot.doc coll doc_id in
                let candidates label =
                  let fetched =
                    List.rev
                      (Option.value ~default:[] (Hashtbl.find_opt table (doc_id, label)))
                  in
                  Some
                    (if spec.pin_root && label = side_root then
                       List.filter (Int.equal (Doc.root doc)) fetched
                     else fetched)
                in
                let bindings =
                  Embedding.enumerate ~candidates ~eval doc spec.sub_pattern
                in
                n_embeddings := !n_embeddings + List.length bindings;
                let out = emit doc bindings in
                if side = Single then
                  Span.annotate [ ("witnesses", string_of_int (List.length out)) ];
                out))
          ids
    | Arena matcher ->
        let skip_descendant = !fault = Compile_skip_descendant_edge in
        let by_tag =
          if !fault = Compile_prune_first_node then fun doc tag ->
            match Doc.by_tag doc tag with [] -> [] | first :: _ -> [ first ]
          else Doc.by_tag
        in
        (* A document the prune rejects gets no arena pass and no span,
           and is counted on [assemble] and in [plan.docs.pruned]; every
           other gets one [match] span. [check] fires once per document
           and inside the matcher's arena loop (once per node), so a
           deadline unwinds a compiled match mid-arena. *)
        let pruned = ref 0 in
        let out =
          List.concat_map
            (fun doc_id ->
              check ();
              let doc = Collection.Snapshot.doc coll doc_id in
              if not (Compile.viable ~pin_root:spec.pin_root ~by_tag matcher doc)
              then begin
                incr pruned;
                []
              end
              else
                emit doc
                  (Span.with_
                     ~meta:(with_side side [ ("doc", string_of_int doc_id) ])
                     Names.matcher
                     (fun () ->
                       let bindings, (dstats : Compile.doc_stats) =
                         Compile.run_doc ~check ~pin_root:spec.pin_root
                           ~skip_descendant matcher doc
                       in
                       n_candidates := !n_candidates + dstats.Compile.nodes_visited;
                       n_embeddings := !n_embeddings + dstats.Compile.n_matches;
                       Span.annotate
                         [
                           ("nodes", string_of_int dstats.Compile.nodes_visited);
                           ("structural", string_of_int dstats.Compile.structural);
                           ("matches", string_of_int dstats.Compile.n_matches);
                         ];
                       bindings)))
            (Collection.Snapshot.doc_ids coll)
        in
        Metrics.observe_int m_pruned !pruned;
        Span.annotate
          [
            ( (match side with Single -> "pruned" | s -> "pruned_" ^ side_name s),
              string_of_int !pruned );
          ];
        out
  in
  (* The one pairing loop: every left binding against the candidates the
     strategy's filter hands it, each accepted pair a product tree. *)
  let pair pairing cross_condition (lspec, lefts) (rspec, rights) =
    Span.with_ ~meta:[ ("strategy", strategy_name pairing) ] Names.pair (fun () ->
        let filter = filter_of ~check pairing rights in
        let n_cands = ref 0 in
        let results =
          List.concat_map
            (fun ((ldoc, lbind) as l) ->
              check ();
              List.filter_map
                (fun ((rdoc, rbind) as r) ->
                  incr n_cands;
                  let env label =
                    match binding_env l label with
                    | Some _ as hit -> hit
                    | None -> binding_env r label
                  in
                  if (not filter.recheck) || eval env cross_condition then
                    Some
                      (Tree.element Algebra.prod_root_tag
                         [
                           Witness.of_binding ldoc lbind ~sl:lspec.sub_sl;
                           Witness.of_binding rdoc rbind ~sl:rspec.sub_sl;
                         ])
                  else None)
                (filter.candidates l))
            lefts
        in
        Span.annotate (filter.report ~n_cands:!n_cands ~n_results:(List.length results));
        results)
  in
  let results =
    match plan.root with
    | Select input ->
        let fetched = Span.with_ Names.execute (fun () -> fetch Single input) in
        Span.with_ Names.assemble (fun () ->
            (* set semantics per document: identical subtrees from
               different documents are distinct results, as in TAX *)
            side_docs Single input fetched (fun doc bindings ->
                dedup
                  (List.map
                     (fun b -> Witness.of_binding doc b ~sl:input.spec.sub_sl)
                     bindings)))
    | Join { pairing; cross_condition; left; right } ->
        let fetched_left, fetched_right =
          Span.with_ Names.execute (fun () ->
              let l = fetch Left left in
              (l, fetch Right right))
        in
        Span.with_ Names.assemble (fun () ->
            let bindings side input fetched =
              ( input.spec,
                side_docs side input fetched (fun doc bindings ->
                    List.map (fun b -> (doc, b)) bindings) )
            in
            let lefts = bindings Left left fetched_left in
            let rights = bindings Right right fetched_right in
            dedup (pair pairing cross_condition lefts rights))
  in
  (results, { n_candidates = !n_candidates; n_embeddings = !n_embeddings })
