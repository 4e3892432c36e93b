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

type embed_spec = {
  side : side;
  sub_pattern : Pattern.t;
  sub_sl : int list;
  pin_root : bool;
}

type node =
  | Label_scan of scan
  | Candidate_filter of { side : side; scans : node list }
  | Doc_prune of { required : int list; input : node }
  | Embed of { spec : embed_spec; input : node }
  | Nested_loop_pair of {
      cross_condition : Condition.t;
      left : node;
      right : node;
    }
  | Hash_pair of {
      keys : (Condition.term * Condition.term) list;
      cross_condition : Condition.t;
      left : node;
      right : node;
    }
  | Sim_pair of {
      atom : Condition.t;
      lterm : Condition.term;
      rterm : Condition.term;
      scheme : Simjoin.scheme;
      cross_condition : Condition.t;
      left : node;
      right : node;
    }
  | Dedup of node
  | Compiled_match of { spec : embed_spec; matcher : Compile.t }

type t = { mode : Rewrite.mode; root : node }

let scan_of = function
  | Label_scan s -> s
  | _ -> invalid_arg "Plan: Candidate_filter children must be Label_scan nodes"

let rec node_scans = function
  | Label_scan s -> [ s ]
  | Candidate_filter { scans; _ } -> List.concat_map node_scans scans
  | Doc_prune { input; _ } | Embed { input; _ } | Dedup input -> node_scans input
  | Nested_loop_pair { left; right; _ }
  | Hash_pair { left; right; _ }
  | Sim_pair { left; right; _ } ->
      node_scans left @ node_scans right
  | Compiled_match _ -> []

let scans t = node_scans t.root
let label_queries t = List.map (fun s -> (s.scan_label, s.xpath)) (scans t)

(* ------------------------- rendering ------------------------------ *)

let side_suffix = function
  | Single -> ""
  | Left -> " side=left"
  | Right -> " side=right"

let labels_str labels = String.concat "," (List.map string_of_int labels)

let atom_str (l, r) =
  Format.asprintf "%a" Condition.pp (Condition.Cmp (l, Condition.Eq, r))

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
  let rec render indent = function
    | Label_scan s ->
        line indent "scan #%d: %s%s" s.scan_label (Xpath.to_string s.xpath)
          (match s.est_rows with
          | None -> ""
          | Some n -> Printf.sprintf "  (~%d rows)" n)
    | Candidate_filter { side; scans } ->
        line indent "candidate-filter%s" (side_suffix side);
        List.iter (render (indent + 2)) scans
    | Doc_prune { required; input } ->
        line indent "doc-prune labels=[%s]" (labels_str required);
        render (indent + 2) input
    | Embed { spec; input } ->
        line indent "embed%s sl=[%s]%s" (side_suffix spec.side)
          (labels_str spec.sub_sl)
          (if spec.pin_root then " pin-root" else "");
        render (indent + 2) input
    | Nested_loop_pair { cross_condition; left; right } ->
        line indent "nested-loop-pair on %s"
          (Format.asprintf "%a" Condition.pp cross_condition);
        render (indent + 2) left;
        render (indent + 2) right
    | Hash_pair { keys; cross_condition; left; right } ->
        line indent "hash-pair keys=[%s] recheck %s"
          (String.concat "; " (List.map atom_str keys))
          (Format.asprintf "%a" Condition.pp cross_condition);
        render (indent + 2) left;
        render (indent + 2) right
    | Sim_pair { atom; scheme; cross_condition; left; right; _ } ->
        line indent "sim-pair on %s sig=%s overlap=%s recheck %s"
          (Format.asprintf "%a" Condition.pp atom)
          (Simjoin.scheme_name scheme)
          (Simjoin.overlap_name scheme)
          (Format.asprintf "%a" Condition.pp cross_condition);
        render (indent + 2) left;
        render (indent + 2) right
    | Dedup input ->
        line indent "dedup";
        render (indent + 2) input
    | Compiled_match { spec; matcher } ->
        line indent "compiled-match%s states=%d sl=[%s]%s" (side_suffix spec.side)
          (Compile.n_states matcher) (labels_str spec.sub_sl)
          (if spec.pin_root then " pin-root" else "");
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
  in
  line 0 "plan mode=%s" (match t.mode with Rewrite.Tax -> "tax" | Rewrite.Toss -> "toss");
  render 0 t.root;
  (* drop the trailing newline: callers add their own framing *)
  let s = Buffer.contents buf in
  if s <> "" && s.[String.length s - 1] = '\n' then
    String.sub s 0 (String.length s - 1)
  else s

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

let binding_env doc bind label =
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

(* Internal value flowing between operators during interpretation. *)
type value =
  | Docs of side * Collection.doc_id list
  | Bindings of embed_spec * (Doc.t * (int * Doc.node) list) list
  | Trees of Tree.t list

let expect_docs = function
  | Docs (side, ids) -> (side, ids)
  | _ -> invalid_arg "Plan.run: operator expects a document stream"

let expect_bindings = function
  | Bindings (spec, bs) -> (spec, bs)
  | _ -> invalid_arg "Plan.run: pairing expects embedded bindings"

let rec candidate_filters = function
  | Candidate_filter { side; scans } -> [ (side, List.map scan_of scans) ]
  | Label_scan _ | Compiled_match _ -> []
  | Doc_prune { input; _ } | Embed { input; _ } | Dedup input ->
      candidate_filters input
  | Nested_loop_pair { left; right; _ }
  | Hash_pair { left; right; _ }
  | Sim_pair { left; right; _ } ->
      candidate_filters left @ candidate_filters right

(* Phase ii: run every scan of one side, in order, each in its own
   [xpath] span (annotated by the store with rows / index hit counts). *)
let fetch_side ~check coll scans =
  let table : (int * int, Doc.node list) Hashtbl.t = Hashtbl.create 64 in
  let total = ref 0 in
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
          incr total;
          let key = (doc_id, s.scan_label) in
          Hashtbl.replace table key
            (node :: Option.value ~default:[] (Hashtbl.find_opt table key)))
        hits)
    scans;
  (table, !total)

let side_name = function Single -> "single" | Left -> "left" | Right -> "right"

let run ?(check = ignore) ~eval ~coll_of plan =
  (* Phase ii: all label scans, one [execute] span. *)
  let fetched =
    Span.with_ Names.execute (fun () ->
        List.map
          (fun (side, scans) -> (side, fetch_side ~check (coll_of side) scans))
          (candidate_filters plan.root))
  in
  (* Scans report fetched candidate nodes; compiled matchers report
     arena nodes visited — both feed the same funnel statistic. *)
  let n_candidates =
    ref (List.fold_left (fun acc (_, (_, n)) -> acc + n) 0 fetched)
  in
  let lookup side doc_id label =
    match List.assoc_opt side fetched with
    | None -> Some []
    | Some (table, _) ->
        Some
          (List.rev
             (Option.value ~default:[] (Hashtbl.find_opt table (doc_id, label))))
  in
  (* Phase iii: prune, embed, pair, dedup — one [assemble] span. *)
  let n_embeddings = ref 0 in
  let pair_tree lspec rspec (ldoc, lbind) (rdoc, rbind) =
    Tree.element Algebra.prod_root_tag
      [
        Witness.of_binding ldoc lbind ~sl:lspec.sub_sl;
        Witness.of_binding rdoc rbind ~sl:rspec.sub_sl;
      ]
  in
  let pair_env (ldoc, lbind) (rdoc, rbind) label =
    match List.assoc_opt label lbind with
    | Some n -> Some (ldoc, n)
    | None -> (
        match List.assoc_opt label rbind with
        | Some n -> Some (rdoc, n)
        | None -> None)
  in
  let rec exec_node = function
    | Label_scan _ ->
        invalid_arg "Plan.run: Label_scan outside a Candidate_filter"
    | Candidate_filter { side; _ } ->
        Docs (side, Collection.Snapshot.doc_ids (coll_of side))
    | Doc_prune { required; input } ->
        let side, ids = expect_docs (exec_node input) in
        let meta =
          match side with
          | Single -> []
          | s -> [ ("side", side_name s) ]
        in
        let kept =
          Span.with_ ~meta Names.prune (fun () ->
              let kept =
                List.filter
                  (fun doc_id ->
                    List.for_all
                      (fun label ->
                        Option.value ~default:[] (lookup side doc_id label) <> [])
                      required)
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
        Docs (side, kept)
    | Embed { spec; input } -> (
        let side, ids = expect_docs (exec_node input) in
        let coll = coll_of side in
        match spec.side with
        | Single ->
            (* Selection: witnesses directly, set semantics per document
               (identical subtrees from different documents are distinct
               results, as in TAX). *)
            Trees
              (List.concat_map
                 (fun doc_id ->
                   check ();
                   Span.with_
                     ~meta:[ ("doc", string_of_int doc_id) ]
                     Names.embed
                     (fun () ->
                       let doc = Collection.Snapshot.doc coll doc_id in
                       let bindings =
                         Embedding.enumerate
                           ~candidates:(lookup side doc_id)
                           ~eval doc spec.sub_pattern
                       in
                       n_embeddings := !n_embeddings + List.length bindings;
                       let witnesses =
                         dedup
                           (List.map
                              (fun b -> Witness.of_binding doc b ~sl:spec.sub_sl)
                              bindings)
                       in
                       Span.annotate
                         [ ("witnesses", string_of_int (List.length witnesses)) ];
                       witnesses))
                 ids)
        | Left | Right ->
            let name = side_name spec.side in
            let side_root = spec.sub_pattern.Pattern.root.Pattern.label in
            Bindings
              ( spec,
                List.concat_map
                  (fun doc_id ->
                    check ();
                    Span.with_
                      ~meta:[ ("side", name); ("doc", string_of_int doc_id) ]
                      Names.embed
                      (fun () ->
                        let doc = Collection.Snapshot.doc coll doc_id in
                        let candidates label =
                          let fetched = lookup side doc_id label in
                          if spec.pin_root && label = side_root then
                            Some
                              (List.filter
                                 (Int.equal (Doc.root doc))
                                 (Option.value ~default:[] fetched))
                          else fetched
                        in
                        let bindings =
                          Embedding.enumerate ~candidates ~eval doc
                            spec.sub_pattern
                        in
                        n_embeddings := !n_embeddings + List.length bindings;
                        List.map (fun b -> (doc, b)) bindings))
                  ids ))
    | Nested_loop_pair { cross_condition; left; right } ->
        let lspec, lefts = expect_bindings (exec_node left) in
        let rspec, rights = expect_bindings (exec_node right) in
        Trees
          (Span.with_ ~meta:[ ("strategy", "nested-loop") ] Names.pair (fun () ->
               let results =
                 List.concat_map
                   (fun l ->
                     check ();
                     List.filter_map
                       (fun r ->
                         if eval (pair_env l r) cross_condition then
                           Some (pair_tree lspec rspec l r)
                         else None)
                       rights)
                   lefts
               in
               Span.annotate
                 [
                   ( "pairs",
                     string_of_int (List.length lefts * List.length rights) );
                   ("results", string_of_int (List.length results));
                 ];
               results))
    | Hash_pair { keys; cross_condition; left; right } ->
        let lspec, lefts = expect_bindings (exec_node left) in
        let rspec, rights = expect_bindings (exec_node right) in
        Trees
          (Span.with_ ~meta:[ ("strategy", "hash") ] Names.pair (fun () ->
               let lterms = List.map fst keys and rterms = List.map snd keys in
               let partitions : (string list, (Doc.t * (int * Doc.node) list) list) Hashtbl.t =
                 Hashtbl.create (max 16 (List.length rights))
               in
               List.iter
                 (fun ((rdoc, rbind) as r) ->
                   match key_of (binding_env rdoc rbind) rterms with
                   | None -> ()
                   | Some k ->
                       Hashtbl.replace partitions k
                         (r :: Option.value ~default:[] (Hashtbl.find_opt partitions k)))
                 rights;
               let probed = ref 0 in
               let results =
                 List.concat_map
                   (fun ((ldoc, lbind) as l) ->
                     check ();
                     match key_of (binding_env ldoc lbind) lterms with
                     | None -> []
                     | Some k ->
                         (* rev restores right-side order, so accepted
                            pairs come out exactly as the nested loop
                            would produce them. *)
                         let matches =
                           List.rev
                             (Option.value ~default:[]
                                (Hashtbl.find_opt partitions k))
                         in
                         probed := !probed + List.length matches;
                         List.filter_map
                           (fun r ->
                             if
                               !fault = Hash_no_recheck
                               || eval (pair_env l r) cross_condition
                             then Some (pair_tree lspec rspec l r)
                             else None)
                           matches)
                   lefts
               in
               Span.annotate
                 [
                   ("pairs", string_of_int !probed);
                   ("results", string_of_int (List.length results));
                 ];
               results))
    | Sim_pair { lterm; rterm; scheme; cross_condition; left; right; _ } ->
        let lspec, lefts = expect_bindings (exec_node left) in
        let rspec, rights = expect_bindings (exec_node right) in
        Trees
          (Span.with_ ~meta:[ ("strategy", "sim") ] Names.pair (fun () ->
               let rarr = Array.of_list rights in
               let rvals =
                 Array.map
                   (fun (rdoc, rbind) ->
                     Condition.term_value (binding_env rdoc rbind) rterm)
                   rarr
               in
               let index =
                 Simjoin.build ~check
                   ~drop_last_prefix_token:(!fault = Simjoin_prefix_too_short)
                   scheme rvals
               in
               let n_cands = ref 0 and n_verified = ref 0 in
               let results =
                 List.concat_map
                   (fun ((ldoc, lbind) as l) ->
                     check ();
                     match Condition.term_value (binding_env ldoc lbind) lterm with
                     | None -> []  (* unbound: the atom, hence the cross
                                      condition, is false *)
                     | Some v ->
                         (* candidates come back in ascending build
                            ordinal, so verified pairs are emitted
                            exactly as the nested loop would produce
                            them. *)
                         let cands = Simjoin.probe index v in
                         n_cands := !n_cands + List.length cands;
                         List.filter_map
                           (fun i ->
                             let r = rarr.(i) in
                             if
                               !fault = Simjoin_no_recheck
                               || eval (pair_env l r) cross_condition
                             then begin
                               incr n_verified;
                               Some (pair_tree lspec rspec l r)
                             end
                             else None)
                           cands)
                   lefts
               in
               Span.annotate
                 [
                   ("candidates", string_of_int !n_cands);
                   ("verified", string_of_int !n_verified);
                   ("indexed", string_of_int (Simjoin.n_indexed index));
                   ("fallback", string_of_int (Simjoin.n_fallback index));
                   ("results", string_of_int (List.length results));
                 ];
               results))
    | Dedup input -> (
        match exec_node input with
        | Trees ts -> Trees (dedup ts)
        | v -> v)
    | Compiled_match { spec; matcher } -> (
        let coll = coll_of spec.side in
        let ids = Collection.Snapshot.doc_ids coll in
        let skip_descendant = !fault = Compile_skip_descendant_edge in
        let by_tag =
          if !fault = Compile_prune_first_node then fun doc tag ->
            match Doc.by_tag doc tag with [] -> [] | first :: _ -> [ first ]
          else Doc.by_tag
        in
        (* Every document of the side, in order. One the prune rejects
           gets no arena pass and no span, and is counted on [assemble]
           and in [plan.docs.pruned]; every other gets one [match] span.
           [check] fires once per document and inside the matcher's
           arena loop (once per node), so a deadline unwinds a compiled
           match mid-arena. *)
        let over_docs emit =
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
                  let meta =
                    match spec.side with
                    | Single -> [ ("doc", string_of_int doc_id) ]
                    | side -> [ ("side", side_name side); ("doc", string_of_int doc_id) ]
                  in
                  emit doc
                    (Span.with_ ~meta Names.matcher (fun () ->
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
              ids
          in
          Metrics.observe_int m_pruned !pruned;
          Span.annotate
            [
              ( (match spec.side with
                | Single -> "pruned"
                | side -> "pruned_" ^ side_name side),
                string_of_int !pruned );
            ];
          out
        in
        match spec.side with
        | Single ->
            Trees
              (over_docs (fun doc bindings ->
                   dedup
                     (List.map
                        (fun b -> Witness.of_binding doc b ~sl:spec.sub_sl)
                        bindings)))
        | Left | Right ->
            Bindings
              (spec, over_docs (fun doc bindings -> List.map (fun b -> (doc, b)) bindings)))
  in
  let results =
    Span.with_ Names.assemble (fun () ->
        match exec_node plan.root with
        | Trees ts -> ts
        | _ -> invalid_arg "Plan.run: plan does not produce result trees")
  in
  (results, { n_candidates = !n_candidates; n_embeddings = !n_embeddings })
