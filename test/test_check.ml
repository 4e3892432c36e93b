(* The differential harness tested against itself.

   A clean engine must survive a few hundred random cases; an engine
   with a deliberately injected planner fault must NOT — and the shrunk
   counterexample must be small. This is the standing proof that the
   harness has teeth: if a refactor ever silences it, these tests fail
   before a real bug can hide behind it. *)

module Tree = Toss_xml.Tree
module Doc = Tree.Doc
module Pattern = Toss_tax.Pattern
module Condition = Toss_tax.Condition
module Plan = Toss_core.Plan
module Rng = Toss_check.Rng
module Gen = Toss_check.Gen
module Oracle = Toss_check.Oracle
module Diff = Toss_check.Diff
module Harness = Toss_check.Harness

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------- generator ------------------------------ *)

let test_gen_deterministic () =
  List.iter
    (fun seed ->
      let a = Gen.case seed and b = Gen.case seed in
      Alcotest.(check string)
        "same seed, same case" (Gen.to_ocaml a) (Gen.to_ocaml b);
      checkb "same op" true (a.Gen.op = b.Gen.op))
    [ 0; 1; 42; 123456789 ]

let test_gen_covers_both_ops () =
  let rng = Rng.create 7 in
  let seeds = List.init 64 (fun _ -> Rng.sub_seed rng) in
  let ops = List.map (fun s -> (Gen.case s).Gen.op) seeds in
  checkb "some selections" true (List.mem Gen.Select ops);
  checkb "some joins" true (List.mem Gen.Join ops);
  List.iter
    (fun s ->
      let c = Gen.case s in
      checkb "selections have no right corpus" true
        (c.Gen.op = Gen.Join || c.Gen.right_docs = []);
      checkb "at least one document" true (c.Gen.docs <> []))
    seeds

(* --------------------------- oracle ------------------------------- *)

(* A case tiny enough to verify by hand: //a[b] with SL = {b}. *)
let test_oracle_by_hand () =
  let doc =
    Doc.of_tree
      (Toss_xml.Parser.parse_exn "<a><b>x</b><a><b>y</b></a></a>")
  in
  let pattern =
    Pattern.v
      (Pattern.node 1 [ (Pattern.Ad, Pattern.leaf 2) ])
      (Condition.conj [ Condition.tag_eq 1 "a"; Condition.tag_eq 2 "b" ])
  in
  let eval = Condition.eval_tax in
  let results, n = Oracle.select ~eval ~pattern ~sl:[ 2 ] [ doc ] in
  (* Embeddings: outer a -> either b (2), inner a -> inner b (1). *)
  checki "three satisfying embeddings" 3 n;
  (* Witnesses under SL = {b}: <a><b>x</b></a> from the first embedding;
     the other two embeddings both render as <a><b>y</b></a> — different
     nodes, identical witness value — and set semantics keeps one. *)
  checki "two distinct witnesses" 2 (List.length results)

let test_oracle_matches_executor_on_workload () =
  (* Redundant with [toss check] but pinned here so `dune runtest` alone
     exercises the differential loop. *)
  let rng = Rng.create 2024 in
  let failures =
    List.init 60 (fun _ -> Rng.sub_seed rng)
    |> List.filter_map (fun s -> Diff.check_case (Gen.case s))
  in
  checki "no discrepancies on 60 cases" 0 (List.length failures)

(* ---------------------- harness and faults ------------------------ *)

let test_clean_run_passes () =
  match Harness.run ~seed:42 ~runs:120 () with
  | Harness.Pass { runs } -> checki "all runs checked" 120 runs
  | Harness.Fail { failure; _ } ->
      Alcotest.failf "unexpected discrepancy: %s" failure.Diff.detail

let expect_caught ?op ?max_per_side ~runs name fault =
  match Harness.run ~fault ?op ~seed:42 ~runs () with
  | Harness.Pass _ -> Alcotest.failf "%s: fault not caught in %d runs" name runs
  | Harness.Fail { failure; steps; _ } ->
      let c = failure.Diff.case in
      let docs = List.length c.Gen.docs + List.length c.Gen.right_docs in
      checkb (name ^ ": shrunk to at most 3 documents") true (docs <= 3);
      (* [minimize] stops at 400 steps; a shrink that reaches them was
         cut off before its fixpoint. *)
      checkb (name ^ ": shrunk within the step budget") true (steps < 400);
      Option.iter
        (fun m ->
          checkb
            (Printf.sprintf "%s: shrunk to at most %d document(s) per side" name m)
            true
            (List.length c.Gen.docs <= m && List.length c.Gen.right_docs <= m))
        max_per_side;
      checkb (name ^ ": repro mentions the discrepancy") true
        (String.length (Harness.repro failure) > 0);
      (* The injected fault must not leak out of the run. *)
      checkb (name ^ ": fault reset after run") true (!Plan.fault = Plan.No_fault)

let test_fault_no_dedup () = expect_caught ~runs:200 "no-dedup" Plan.No_dedup

(* The no-dedup repro on seed 42 once kept two wrapper elements around
   its failing part, <item><note>…</note></item>; replacing an element
   by its child strips them, leaving the one subtree whose two
   embeddings share a witness. *)
let test_no_dedup_repro_is_the_failing_subtree () =
  match Harness.run ~fault:Plan.No_dedup ~seed:42 ~runs:200 () with
  | Harness.Pass _ -> Alcotest.fail "no-dedup not caught in 200 runs"
  | Harness.Fail { failure; _ } ->
      Alcotest.(check (list string))
        "the shrunk corpus"
        [ "<paper><book>models</book><item>42</item></paper>" ]
        (List.map Toss_xml.Printer.to_string failure.Diff.case.Gen.docs);
      checki "two embeddings, one witness" 1 (List.length failure.Diff.expected);
      checki "the duplicate kept" 2 (List.length failure.Diff.got)

let test_fault_prune_first_only () =
  expect_caught ~runs:200 "prune-first-only" Plan.Prune_first_only

(* The compiled matcher's prune must find a passing node among all the
   nodes of a pinned tag, not just the first; Gen's sibling lists are
   what make a document whose first node of the tag fails but a later
   one matches. *)
let test_fault_compile_prune_first_node () =
  expect_caught ~runs:500 "compile-prune-first-node" Plan.Compile_prune_first_node

let test_fault_hash_no_recheck () =
  expect_caught ~op:Gen.Join ~runs:500 "hash-no-recheck" Plan.Hash_no_recheck

(* The two sim-join faults bracket the operator's two proof obligations:
   candidate completeness (a too-short signature prefix loses pairs the
   nested-loop reference finds) and soundness (skipping the cross-
   condition recheck emits pairs that merely share a prefix token).
   Both must shrink to a couple of documents per side — the [Sim]
   pairing still fires there because the planner's build-side threshold
   is 2. *)
let test_fault_simjoin_prefix_too_short () =
  expect_caught ~op:Gen.Join ~max_per_side:2 ~runs:500 "simjoin-prefix-too-short"
    Plan.Simjoin_prefix_too_short

let test_fault_simjoin_no_recheck () =
  expect_caught ~op:Gen.Join ~max_per_side:2 ~runs:500 "simjoin-no-recheck"
    Plan.Simjoin_no_recheck

(* -------------------------- shrinker ------------------------------ *)

let test_shrinker_requires_failure () =
  (* A trivially passing case must be rejected, not "minimized". *)
  let case = Gen.case 42 in
  match Diff.check_case case with
  | Some _ -> Alcotest.fail "fixture: seed 42 unexpectedly fails clean"
  | None ->
      checkb "minimize rejects passing cases" true
        (try
           ignore (Toss_check.Shrink.minimize case);
           false
         with Invalid_argument _ -> true)

(* ------------------------ SEO build ------------------------------- *)

(* The SEO build against the all-pairs reference it replaced
   ([Oracle.seo_of_documents]). Documents are drawn over a small lexicon
   whose synsets each sit in one document, in two, or in every one.

   Run with the lexicon it was built from, the Maker puts a known term's
   whole synset into one node, so the fusion's spelling equality merges
   synonyms before any constraint does. Each case is therefore also built
   from ontologies the Maker made without the synsets, and fused under the
   synsets' constraints: there the constraints alone merge synonyms held
   by different documents. *)

module Hierarchy = Toss_hierarchy.Hierarchy
module Node = Toss_hierarchy.Node
module Lexicon = Toss_ontology.Lexicon
module Maker = Toss_ontology.Maker
module Fusion = Toss_ontology.Fusion
module Interop = Toss_ontology.Interop
module Ontology = Toss_ontology.Ontology
module Seo = Toss_core.Seo
module Sea = Toss_similarity.Sea

(* Near-duplicate pairs: at ε = 1 SEA clusters each pair, and opposite
   orderings of two pairs make the existential lift cyclic, the case
   [Seo.create] answers with the universal lift. *)
let spellings = [| "ab"; "ac"; "xy"; "xz"; "pq"; "pr" |]
let leaf_tags = Array.append [| "r"; "s" |] spellings
let seo_metric = Toss_similarity.Levenshtein.metric
let seo_eps = 1.0

type spread = One | Two | Every

type seo_case = {
  synsets : string list list;  (** disjoint *)
  isa : (string * string) list;  (** (sub, super) between spellings *)
  docs : (string * string) list list;  (** each document's (tag, content) leaves *)
}

let seo_case_gen =
  QCheck2.Gen.(
    let* n_docs = int_range 1 4 in
    let* perm = shuffle_a spellings in
    let* sizes = list_size (int_range 1 3) (int_range 2 3) in
    let synsets =
      (* Consecutive runs of the shuffled spellings. *)
      List.fold_left
        (fun (at, acc) k ->
          if at + k > Array.length perm then (at, acc)
          else (at + k, Array.to_list (Array.sub perm at k) :: acc))
        (0, []) sizes
      |> snd |> List.rev
    in
    (* Hypernymy runs forward in the shuffled order, so it stays acyclic
       once synonyms are merged. *)
    let* isa =
      list_size (int_range 0 3)
        (let* i = int_bound (Array.length perm - 1) in
         let* j = int_bound (Array.length perm - 1) in
         return (perm.(min i j), perm.(max i j)))
    in
    let* placed =
      flatten_l
        (List.map
           (fun synset ->
             let* spread = oneofl [ One; Two; Every ] in
             let* d1 = int_bound (n_docs - 1) in
             let* d2 = int_bound (n_docs - 1) in
             let* tags = flatten_l (List.map (fun _ -> oneofa leaf_tags) synset) in
             let d2 = if d2 = d1 then (d1 + 1) mod n_docs else d2 in
             let docs_of k =
               match spread with
               | One -> [ d1 ]
               | Two -> [ (if k mod 2 = 0 then d1 else d2) ]
               | Every -> List.init n_docs Fun.id
             in
             return
               (List.concat
                  (List.mapi
                     (fun k (s, tag) -> List.map (fun d -> (d, (tag, s))) (docs_of k))
                     (List.combine synset tags))))
           synsets)
    in
    let* noise =
      list_size (int_range 0 4)
        (triple (int_bound (n_docs - 1)) (oneofa leaf_tags) (oneofa spellings))
    in
    let leaves = List.concat placed @ List.map (fun (d, t, c) -> (d, (t, c))) noise in
    let docs =
      List.init n_docs (fun d ->
          List.filter_map (fun (d', leaf) -> if d' = d then Some leaf else None) leaves)
    in
    return { synsets; isa; docs })

let case_lexicon ~synonyms c =
  let lex =
    List.fold_left (fun l (sub, super) -> Lexicon.add_isa ~sub ~super l) Lexicon.empty c.isa
  in
  if synonyms then List.fold_left (fun l s -> Lexicon.add_synset s l) lex c.synsets else lex

let case_trees c =
  List.map
    (fun leaves -> Tree.element "doc" (List.map (fun (tag, s) -> Tree.leaf tag s) leaves))
    c.docs

let print_seo_case c =
  Printf.sprintf "synsets: %s\nisa: %s\n%s"
    (String.concat " " (List.map (fun s -> "{" ^ String.concat "," s ^ "}") c.synsets))
    (String.concat " " (List.map (fun (a, b) -> a ^ " < " ^ b) c.isa))
    (String.concat "\n"
       (List.mapi
          (fun i t -> Printf.sprintf "doc %d: %s" i (Toss_xml.Printer.to_string ~decl:false t))
          (case_trees c)))

let fallbacks = ref 0

(* Equal fused isa and part-of hierarchies and equal SEO isa hierarchies.
   Counts the fused isa hierarchies SEA's existential lift rejects. *)
let same_seo (fused, seo) (ref_fused, ref_seo) =
  let get = Ontology.get in
  let isa = get Ontology.isa fused in
  if Sea.enhance ~metric:seo_metric ~eps:seo_eps isa = None then incr fallbacks;
  Hierarchy.equal isa (get Ontology.isa ref_fused)
  && Hierarchy.equal (get Ontology.part_of fused) (get Ontology.part_of ref_fused)
  && Hierarchy.equal (Seo.isa_hierarchy seo) (Seo.isa_hierarchy ref_seo)

let prop_seo_matches_reference =
  QCheck2.Test.make ~name:"SEO build equals the all-pairs reference" ~count:300
    ~print:print_seo_case seo_case_gen (fun c ->
      let docs = List.map Doc.of_tree (case_trees c) in
      let lexicon = case_lexicon ~synonyms:true c in
      let enhanced fused = (fused, Seo.create_exn ~metric:seo_metric ~eps:seo_eps fused) in
      let built = Seo.of_documents ~metric:seo_metric ~eps:seo_eps ~lexicon docs in
      let reference = Oracle.seo_of_documents ~metric:seo_metric ~eps:seo_eps ~lexicon docs in
      let bare = Maker.make_all ~lexicon:(case_lexicon ~synonyms:false c) docs in
      let split = Fusion.fuse_ontologies bare (Maker.auto_constraints ~lexicon bare) in
      let split_reference =
        Oracle.fuse_ontologies bare (Oracle.auto_constraints ~lexicon bare)
      in
      let with_fused r =
        let seo = Result.get_ok r in
        (Seo.ontology seo, seo)
      in
      same_seo (with_fused built) (with_fused reference)
      && same_seo
           (enhanced (Result.get_ok split))
           (enhanced (Result.get_ok split_reference)))

let test_seo_matches_reference () =
  fallbacks := 0;
  QCheck2.Test.check_exn ~rand:(Random.State.make [| 18 |]) prop_seo_matches_reference;
  checkb "some cases take the universal-lift fallback" true (!fallbacks > 0)

(* The session's rebuild against the reference, one insert at a time:
   the case's documents in order, each followed by a re-keyed copy of an
   earlier one (the same leaves under a new attribute), which leaves
   fusion's output unchanged. After every insert the session's SEO must
   equal the reference built from scratch over the documents inserted so
   far. The build's metrics tell which path each rebuild took. *)
module Session = Toss_core.Session
module Metrics = Toss_obs.Metrics

let counter ?labels name =
  Option.value ~default:0 (Metrics.find_counter (Metrics.snapshot ()) ?labels name)

let reused what = counter ~labels:[ ("what", what) ] "seo.build.reused"

type paths = { mutable seo : int; mutable enhancement : int; mutable fresh : int; mutable universal : int }

let paths = { seo = 0; enhancement = 0; fresh = 0; universal = 0 }

let insert_sequence c =
  let trees = case_trees c in
  List.concat
    (List.mapi
       (fun i t ->
         match List.nth trees (i / 2) with
         | Tree.Element e ->
             [ t; Tree.Element { e with attrs = [ ("key", Printf.sprintf "copy%d" i) ] } ]
         | Tree.Text _ -> [ t ])
       trees)

let prop_rebuild_matches_reference =
  QCheck2.Test.make ~name:"session rebuild equals the reference after every insert"
    ~count:200 ~print:print_seo_case seo_case_gen (fun c ->
      let lexicon = case_lexicon ~synonyms:true c in
      let s = Session.create ~metric:seo_metric ~eps:seo_eps ~lexicon () in
      let rec check inserted = function
        | [] -> true
        | t :: rest ->
            Session.add_document s ~collection:"c" t;
            let inserted = inserted @ [ Doc.of_tree t ] in
            let seo0 = reused "seo" and enh0 = reused "enhancement" in
            let universal0 = counter "seo.lift.universal" in
            let built = Result.get_ok (Session.seo s) in
            if reused "seo" > seo0 then paths.seo <- paths.seo + 1
            else if reused "enhancement" > enh0 then paths.enhancement <- paths.enhancement + 1
            else paths.fresh <- paths.fresh + 1;
            if counter "seo.lift.universal" > universal0 then
              paths.universal <- paths.universal + 1;
            let reference =
              Result.get_ok
                (Oracle.seo_of_documents ~metric:seo_metric ~eps:seo_eps ~lexicon inserted)
            in
            same_seo (Seo.ontology built, built) (Seo.ontology reference, reference)
            && check inserted rest
      in
      check [] (insert_sequence c))

let test_rebuild_matches_reference () =
  paths.seo <- 0;
  paths.enhancement <- 0;
  paths.fresh <- 0;
  paths.universal <- 0;
  QCheck2.Test.check_exn ~rand:(Random.State.make [| 30 |]) prop_rebuild_matches_reference;
  checkb "some rebuilds absorb the insert, reusing the whole SEO" true (paths.seo > 0);
  checkb "some rebuilds reuse only the enhancement" true (paths.enhancement > 0);
  checkb "some rebuilds run SEA afresh" true (paths.fresh > 0);
  checkb "some rebuilds take the universal-lift fallback" true (paths.universal > 0)

(* Absorbing without the test, so reusing the previous SEO whatever the
   insert brought, must be caught. *)
let test_rebuild_fault_caught () =
  Seo.fault := Seo.Reuse_unchecked;
  let caught =
    Fun.protect
      ~finally:(fun () -> Seo.fault := Seo.No_fault)
      (fun () ->
        match
          QCheck2.Test.check_exn ~rand:(Random.State.make [| 30 |])
            prop_rebuild_matches_reference
        with
        | () -> false
        | exception QCheck2.Test.Test_fail _ -> true)
  in
  checkb "unchecked reuse caught" true caught

(* Absorption against fusion itself: [Seo.absorbs] must hold exactly
   when fusing the new document in leaves the old fusion unchanged,
   relation by relation. A case's documents become old sources plus one
   new document, printed last: the case's last document, a copy of an
   old one, a subset of an old one's leaves, or an old one's leaves with
   each content moved up to a hypernym the lexicon gives it (a spelling
   the old sources may hold only as an ancestor). The ontologies are
   made both ways [prop_seo_matches_reference] makes them; only the
   bare ones can hold two synonyms of one source in two nodes, the case
   absorption's synonym condition is for. *)
type split = Last | Copy | Subset | Broader

let absorption_case_gen =
  QCheck2.Gen.(
    let* c = seo_case_gen in
    let* split = oneofl [ Last; Copy; Subset; Broader ] in
    let* i = int_bound (List.length c.docs - 1) in
    let leaves = List.nth c.docs i in
    let* keep = list_repeat (List.length leaves) bool in
    return
      (match split with
      | Last -> c
      | Copy -> { c with docs = c.docs @ [ leaves ] }
      | Subset ->
          { c with docs = c.docs @ [ List.filteri (fun k _ -> List.nth keep k) leaves ] }
      | Broader ->
          let up (tag, s) = (tag, Option.value ~default:s (List.assoc_opt s c.isa)) in
          { c with docs = c.docs @ [ List.map up leaves ] }))

let same_fusion a b =
  let relations = Ontology.relations a in
  relations = Ontology.relations b
  && List.for_all
       (fun rel -> Hierarchy.equal (Ontology.get rel a) (Ontology.get rel b))
       relations

let absorbed = ref 0 and not_absorbed = ref 0

let prop_absorbs_iff_fusion_unchanged =
  QCheck2.Test.make ~name:"absorbed iff fusion is unchanged" ~count:500
    ~print:print_seo_case absorption_case_gen (fun c ->
      let docs = List.map Doc.of_tree (case_trees c) in
      let lexicon = case_lexicon ~synonyms:true c in
      let fuse os =
        Result.get_ok (Fusion.fuse_ontologies os (Maker.auto_constraints ~lexicon os))
      in
      List.for_all
        (fun synonyms ->
          let all = Maker.make_all ~lexicon:(case_lexicon ~synonyms c) docs in
          let n = List.length all in
          let old = List.filteri (fun k _ -> k < n - 1) all in
          let fused = fuse old in
          let absorbs = Seo.absorbs ~lexicon fused (List.nth all (n - 1)) in
          incr (if absorbs then absorbed else not_absorbed);
          absorbs = same_fusion (fuse all) fused)
        [ true; false ])

let test_absorbs_iff_fusion_unchanged () =
  absorbed := 0;
  not_absorbed := 0;
  QCheck2.Test.check_exn ~rand:(Random.State.make [| 32 |]) prop_absorbs_iff_fusion_unchanged;
  checkb "some new documents are absorbed" true (!absorbed > 0);
  checkb "some new documents are not absorbed" true (!not_absorbed > 0)

(* Canonical fusion against the reference on random hierarchies over
   overlapping per-source pools, some nodes holding two terms, under
   random [Leq]/[Eq]/[Neq] constraints that may name unknown terms and,
   rarely, an unknown source. *)
let fusion_hierarchy_gen source =
  QCheck2.Gen.(
    let pool = Array.init 6 (fun i -> Printf.sprintf "t%d" (i + (source * 3))) in
    let term = int_bound (Array.length pool - 1) in
    let* edges = list_size (int_range 0 6) (pair term term) in
    let* merges = list_size (int_range 0 2) (pair term term) in
    let* isolated = list_size (int_range 0 2) term in
    let h =
      Hierarchy.of_pairs
        (List.filter_map
           (fun (i, j) ->
             if i = j then None else Some (pool.(min i j), pool.(max i j)))
           edges)
    in
    let h = List.fold_left (fun h i -> Hierarchy.add_term pool.(i) h) h isolated in
    return
      (List.fold_left
         (fun h (i, j) ->
           let merged = Hierarchy.merge_terms pool.(i) pool.(j) h in
           if Hierarchy.is_consistent merged then merged else h)
         h merges))

let fusion_case_gen =
  QCheck2.Gen.(
    let* k = int_range 1 3 in
    let* hs = flatten_l (List.init k fusion_hierarchy_gen) in
    let q =
      pair
        (oneofa (Array.append [| "u" |] (Array.init 12 (Printf.sprintf "t%d"))))
        (frequency [ (12, int_bound (k - 1)); (1, return k) ])
    in
    let* cs =
      list_size (int_range 0 4)
        (let* a = q and* b = q in
         oneofl [ Interop.leq a b; Interop.eq a b; Interop.neq a b ])
    in
    return (hs, cs))

let print_fusion_case (hs, cs) =
  Format.asprintf "@[<v>%a@,constraints: %a@]"
    (Format.pp_print_list (fun ppf (i, h) ->
         Format.fprintf ppf "source %d: %s" i (Hierarchy.to_dot h)))
    (List.mapi (fun i h -> (i, h)) hs)
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       Interop.pp)
    cs

type fusion_outcome =
  | Fused of Hierarchy.t * Node.t option list  (** ψ of every input node *)
  | Refused of Fusion.error
  | Raised of string

let fusion_outcome hs fuse =
  let inputs =
    List.concat (List.mapi (fun i h -> List.map (fun n -> (i, n)) (Hierarchy.nodes h)) hs)
  in
  match fuse () with
  | Ok (fused, psi) -> Fused (fused, List.map (fun (source, n) -> psi ~source n) inputs)
  | Error e -> Refused e
  | exception Invalid_argument msg -> Raised msg

let neq_refusals = ref 0

let prop_fusion_matches_reference =
  QCheck2.Test.make ~name:"fusion equals the per-(source, node) reference" ~count:500
    ~print:print_fusion_case fusion_case_gen (fun (hs, cs) ->
      List.for_all
        (fun auto_equate ->
          let got =
            fusion_outcome hs (fun () ->
                Result.map
                  (fun { Fusion.fused; witness } -> (fused, Fusion.psi witness))
                  (Fusion.fuse ~auto_equate hs cs))
          in
          let expected =
            fusion_outcome hs (fun () ->
                Result.map
                  (fun { Oracle.fused; psi } -> (fused, psi))
                  (Oracle.fuse ~auto_equate hs cs))
          in
          match (got, expected) with
          | Fused (h, psi), Fused (h', psi') ->
              Hierarchy.equal h h' && List.equal (Option.equal Node.equal) psi psi'
          | Refused e, Refused e' ->
              (match e with Fusion.Neq_violated _ -> incr neq_refusals | _ -> ());
              e = e'
          | Raised m, Raised m' -> m = m'
          | _ -> false)
        [ true; false ])

let test_fusion_matches_reference () =
  neq_refusals := 0;
  QCheck2.Test.check_exn ~rand:(Random.State.make [| 18 |]) prop_fusion_matches_reference;
  checkb "some cases violate a Neq constraint" true (!neq_refusals > 0)

let () =
  Alcotest.run "toss_check"
    [
      ( "generator",
        [
          Alcotest.test_case "deterministic per seed" `Quick test_gen_deterministic;
          Alcotest.test_case "covers both operators" `Quick test_gen_covers_both_ops;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "hand-checked selection" `Quick test_oracle_by_hand;
          Alcotest.test_case "agrees with executor (60 cases)" `Quick
            test_oracle_matches_executor_on_workload;
        ] );
      ( "harness",
        [
          Alcotest.test_case "clean run passes" `Quick test_clean_run_passes;
          Alcotest.test_case "catches missing dedup" `Quick test_fault_no_dedup;
          Alcotest.test_case "catches over-eager pruning" `Quick
            test_fault_prune_first_only;
          Alcotest.test_case "catches over-eager compiled pruning" `Quick
            test_fault_compile_prune_first_node;
          Alcotest.test_case "catches skipped hash recheck" `Quick
            test_fault_hash_no_recheck;
          Alcotest.test_case "catches too-short simjoin prefixes" `Quick
            test_fault_simjoin_prefix_too_short;
          Alcotest.test_case "catches skipped simjoin recheck" `Quick
            test_fault_simjoin_no_recheck;
          Alcotest.test_case "shrinker rejects passing cases" `Quick
            test_shrinker_requires_failure;
          Alcotest.test_case "shrinker strips wrapper elements" `Quick
            test_no_dedup_repro_is_the_failing_subtree;
        ] );
      ( "seo build",
        [
          Alcotest.test_case "equals the all-pairs reference" `Quick
            test_seo_matches_reference;
          Alcotest.test_case "fusion equals the reference" `Quick
            test_fusion_matches_reference;
          Alcotest.test_case "absorbed iff fusion is unchanged" `Quick
            test_absorbs_iff_fusion_unchanged;
          Alcotest.test_case "session rebuild equals the reference" `Quick
            test_rebuild_matches_reference;
          Alcotest.test_case "catches unchecked SEO reuse" `Quick
            test_rebuild_fault_caught;
        ] );
    ]
