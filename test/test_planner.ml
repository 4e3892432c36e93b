(* Planner equivalence and unit tests.

   The planner must never change answers, only the work done to produce
   them. The equivalence suite runs a generated workload (50+
   query/mode combinations over the Section 6 corpus) through three
   plans, each run by [Plan.run]: the compiled plan, the planned
   interpreted plan, and the planner's naive reference plan
   ([~optimize:false]: rewrite-order scans, no pruning, nested-loop
   pairing). All three must return identical result trees (same list,
   same order) and identical embedding counts — in particular the
   compiled single-pass matcher must agree exactly with the interpreted
   scan/prune/embed pipeline. Joins check each planned pairing (hash,
   sim-pair) against the nested-loop reference the same way. Unit tests
   pin the selectivity estimator, the most-selective-first scan
   ordering, and the hash/sim-pair/nested-loop pairing choice
   (including the tiny-build-side fallback). *)

module Tree = Toss_xml.Tree
module Doc = Tree.Doc
module Pattern = Toss_tax.Pattern
module Condition = Toss_tax.Condition
module Collection = Toss_store.Collection
module Xpath_parser = Toss_store.Xpath_parser
module Span = Toss_obs.Span
module Seo = Toss_core.Seo
module Executor = Toss_core.Executor
module Planner = Toss_core.Planner
module Plan = Toss_core.Plan
module Rewrite = Toss_core.Rewrite
module Toss_condition = Toss_core.Toss_condition
module Corpus = Toss_data.Corpus
module Dblp_gen = Toss_data.Dblp_gen
module Sigmod_gen = Toss_data.Sigmod_gen
module Workload = Toss_data.Workload
module Tql = Toss_core.Tql

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let corpus = Corpus.generate ~seed:11 ~n_papers:80 ()
let dblp = Dblp_gen.render ~seed:11 corpus
let sigmod = Sigmod_gen.render ~seed:11 corpus

(* One big document (the DBLP rendering) and one genuinely multi-document
   collection (one SIGMOD proceedings page per document), so candidate-doc
   pruning has documents to drop. *)
let dblp_coll =
  let c = Collection.create "dblp" in
  ignore (Collection.add_document c dblp.Dblp_gen.tree);
  Collection.snapshot c

let sigmod_coll =
  let c = Collection.create "sigmod" in
  List.iter (fun t -> ignore (Collection.add_document c t)) sigmod.Sigmod_gen.trees;
  Collection.snapshot c

let seo =
  let docs =
    Doc.of_tree dblp.Dblp_gen.tree
    :: List.map Doc.of_tree sigmod.Sigmod_gen.trees
  in
  match Seo.of_documents ~metric:Workload.experiment_metric ~eps:2.0 docs with
  | Ok seo -> seo
  | Error msg -> failwith msg

let is_hash plan =
  match plan.Plan.root with
  | Plan.Join { pairing = Plan.Hash _; _ } -> true
  | _ -> false

let is_nested plan =
  match plan.Plan.root with
  | Plan.Join { pairing = Plan.Nested_loop; _ } -> true
  | _ -> false

let is_sim plan =
  match plan.Plan.root with
  | Plan.Join { pairing = Plan.Sim _; _ } -> true
  | _ -> false

(* Runs every named plan through [Plan.run]; all must agree exactly with
   the first. *)
let check_plans_agree ~what ~mode ~coll_of plans =
  let eval =
    match mode with
    | Executor.Tax -> Condition.eval_tax
    | Executor.Toss -> Toss_condition.evaluator seo
  in
  let runs = List.map (fun (name, plan) -> (name, Plan.run ~eval ~coll_of plan)) plans in
  match runs with
  | [] -> ()
  | (_, (r0, s0)) :: rest ->
      List.iter
        (fun (name, (results, stats)) ->
          let tag = Printf.sprintf "%s %s" what name in
          checkb (tag ^ ": same results") true (results = r0);
          checki (tag ^ ": same embeddings") s0.Plan.n_embeddings
            stats.Plan.n_embeddings)
        rest

(* One selection: compiled, planned interpreted, and the naive
   interpreted reference. *)
let check_select_equivalent ~what coll mode ~pattern ~sl =
  let plan ?optimize ?compile () =
    Planner.plan_select ~mode ?optimize ?compile seo coll ~pattern ~sl
  in
  check_plans_agree ~what ~mode
    ~coll_of:(fun _ -> coll)
    [
      ("compiled", plan ());
      ("interpreted", plan ~compile:false ());
      ("naive reference", plan ~optimize:false ~compile:false ());
    ]

(* One join: both planned plans must use [pairing] — so the check is
   never a nested loop compared with itself — and agree witness for
   witness with the nested-loop reference plan. *)
let check_join_equivalent ~what ~pairing ~pattern ~sl =
  let plan ?optimize ?compile () =
    Planner.plan_join ?optimize ?compile seo dblp_coll sigmod_coll ~pattern ~sl
  in
  let compiled = plan () and interpreted = plan ~compile:false () in
  let reference = plan ~optimize:false ~compile:false () in
  checkb (what ^ ": compiled plan uses the planned pairing") true (pairing compiled);
  checkb (what ^ ": interpreted plan uses the planned pairing") true
    (pairing interpreted);
  checkb (what ^ ": reference pairs by nested loop") true (is_nested reference);
  check_plans_agree ~what ~mode:Executor.Toss
    ~coll_of:(function
      | Plan.Right -> sigmod_coll
      | Plan.Left | Plan.Single -> dblp_coll)
    [
      ("compiled", compiled);
      ("interpreted", interpreted);
      ("nested-loop reference", reference);
    ]

(* ------------------- equivalence: selections ---------------------- *)

(* 25 workload queries x 2 modes = 50 query/mode combinations, each run
   through all three plans. *)
let test_selection_equivalence () =
  let queries = Workload.selection_queries ~n:25 corpus in
  checki "workload size" 25 (List.length queries);
  List.iter
    (fun (q : Workload.query) ->
      List.iter
        (fun mode ->
          check_select_equivalent
            ~what:(Printf.sprintf "q%d" q.Workload.query_id)
            dblp_coll mode ~pattern:q.Workload.pattern ~sl:q.Workload.sl)
        [ Executor.Tax; Executor.Toss ])
    queries

(* The same workload against the multi-document SIGMOD collection: the
   patterns mostly miss there, so pruning drops documents wholesale and
   must still agree with the unpruned plans. *)
let test_selection_equivalence_multidoc () =
  let queries = Workload.selection_queries ~n:8 corpus in
  List.iter
    (fun (q : Workload.query) ->
      check_select_equivalent
        ~what:(Printf.sprintf "sigmod q%d" q.Workload.query_id)
        sigmod_coll Executor.Toss ~pattern:q.Workload.pattern ~sl:q.Workload.sl)
    queries;
  let pattern, sl = Workload.scalability_selection () in
  List.iter
    (fun coll ->
      check_select_equivalent ~what:"scalability" coll Executor.Toss ~pattern ~sl)
    [ dblp_coll; sigmod_coll ]

(* A query with actual SIGMOD matches, so multi-document pruning keeps a
   non-trivial subset. *)
let test_sigmod_hits_equivalence () =
  let open Pattern in
  let pattern =
    v
      (node 1 [ pc (leaf 2) ])
      (Condition.conj
         [
           Condition.tag_eq 1 "article";
           Condition.tag_eq 2 "initPage";
           Condition.Cmp (Condition.Content 2, Condition.Le, Condition.Str "60");
         ])
  in
  check_select_equivalent ~what:"articles by page" sigmod_coll Executor.Toss
    ~pattern ~sl:[];
  (* The interpreted planner trace carries a prune span; the naive
     reference plan has no prune operator, and the compiled matcher
     replaces both with match spans. *)
  let _, stats = Executor.select ~compile:false seo sigmod_coll ~pattern ~sl:[] in
  checkb "planner trace has a prune span" true
    (Span.find stats.Executor.trace "prune" <> None);
  let naive =
    Planner.plan_select ~optimize:false ~compile:false seo sigmod_coll ~pattern
      ~sl:[]
  in
  checkb "naive plan has no prune operator" true
    (match naive.Plan.root with
    | Plan.Select { source = Plan.Scans { prune = false; _ }; _ } -> true
    | _ -> false);
  let _, stats = Executor.select seo sigmod_coll ~pattern ~sl:[] in
  checkb "compiled trace has no prune span" true
    (Span.find stats.Executor.trace "prune" = None);
  checkb "compiled trace has a match span" true
    (Span.find stats.Executor.trace "match" <> None);
  (* The compiled matcher's own prune: one match span per arena pass,
     and the assemble span counts the documents skipped without one. *)
  let trace = stats.Executor.trace in
  let rec count name (s : Span.t) =
    List.fold_left (fun n c -> n + count name c)
      (if s.Span.name = name then 1 else 0)
      s.Span.children
  in
  let pruned =
    match Span.find trace "assemble" with
    | Some a -> int_of_string (List.assoc "pruned" a.Span.meta)
    | None -> Alcotest.fail "compiled trace has no assemble span"
  in
  checkb "the compiled prune skips documents" true (pruned > 0);
  checki "one match span per document not pruned"
    (Collection.Snapshot.n_documents sigmod_coll - pruned)
    (count "match" trace)

(* ---------------------- equivalence: joins ------------------------ *)

let equi_join_pattern () =
  let open Pattern in
  let left = node 1 [ pc (leaf 2) ] in
  let right = node 3 [ pc (leaf 4) ] in
  let root = node 0 [ ad left; ad right ] in
  let condition =
    Condition.conj
      [
        Condition.tag_eq 0 Toss_tax.Algebra.prod_root_tag;
        Condition.tag_eq 1 "inproceedings";
        Condition.tag_eq 2 "year";
        Condition.tag_eq 3 "proceedings";
        Condition.tag_eq 4 "confYear";
        Condition.Cmp (Condition.Content 2, Condition.Eq, Condition.Content 4);
      ]
  in
  (v root condition, [ 1; 3 ])

let test_join_equivalence_similarity () =
  (* Figure 16(b): a ~ cross-condition — the planner lowers it to the
     signature-indexed sim-pair operator, whose answers must match the
     nested-loop reference plan exactly. *)
  let pattern, sl = Workload.join_query () in
  check_join_equivalent ~what:"sim join" ~pairing:is_sim ~pattern ~sl

let test_join_equivalence_hash () =
  let pattern, sl = equi_join_pattern () in
  (* The hash path must agree with the nested loop on a join that really
     produces pairs — an empty answer would make this vacuous. *)
  let results, _ = Executor.join seo dblp_coll sigmod_coll ~pattern ~sl in
  checkb "equi-join has matches" true (Workload.result_key_pairs results <> []);
  check_join_equivalent ~what:"equi join" ~pairing:is_hash ~pattern ~sl

(* ---------------------- unit: selectivity ------------------------- *)

let small_coll =
  let c = Collection.create "small" in
  (match
     Collection.add_xml c "<r><a>x</a><a>y</a><b>x</b><c><a>x</a></c></r>"
   with
  | Ok _ -> ()
  | Error _ -> failwith "bad xml");
  c

let est q =
  Collection.Snapshot.estimate_rows (Collection.snapshot small_coll) (Xpath_parser.parse_exn q)

let test_estimate_rows () =
  checki "tag count" 3 (est "//a");
  checki "unknown tag" 0 (est "//zzz");
  checki "eq refinement" 2 (est "//a[.='x']");
  checki "or sums" 3 (est "//a[.='x' or .='y']");
  checki "and takes min" 1 (est "//a[.='x' and .='y']");
  checki "union of paths sums" 4 (est "//a|//b");
  checki "capped at collection size" 6 (est "//*")

(* ---------------------- unit: scan ordering ----------------------- *)

let test_scan_ordering () =
  let queries = Workload.selection_queries ~n:1 corpus in
  let q = List.hd queries in
  (* Scan shaping is an interpreted-pipeline concern: the compiled plan
     (the default) issues no scans at all. *)
  let compiled =
    Planner.plan_select seo dblp_coll ~pattern:q.Workload.pattern
      ~sl:q.Workload.sl
  in
  checkb "compiled plan has no scans" true (Plan.scans compiled = []);
  let plan =
    Planner.plan_select ~compile:false seo dblp_coll ~pattern:q.Workload.pattern
      ~sl:q.Workload.sl
  in
  let scans = Plan.scans plan in
  let ests = List.map (fun s -> Option.get s.Plan.est_rows) scans in
  checkb "estimates ascend" true (List.sort compare ests = ests);
  (* The naive plan keeps rewrite (pattern preorder) order and carries no
     estimates. *)
  let naive =
    Planner.plan_select ~compile:false ~optimize:false seo dblp_coll
      ~pattern:q.Workload.pattern ~sl:q.Workload.sl
  in
  checkb "naive order is preorder" true
    (List.map (fun s -> s.Plan.scan_label) (Plan.scans naive)
    = Pattern.labels q.Workload.pattern);
  checkb "naive has no estimates" true
    (List.for_all (fun s -> s.Plan.est_rows = None) (Plan.scans naive))

(* ------------------- unit: pairing strategy ----------------------- *)

let test_pairing_choice () =
  let eq_pattern, eq_sl = equi_join_pattern () in
  let sim_pattern, sim_sl = Workload.join_query () in
  let plan_of ?optimize pattern sl =
    Planner.plan_join ?optimize seo dblp_coll sigmod_coll ~pattern ~sl
  in
  checkb "equality lowers to hash" true (is_hash (plan_of eq_pattern eq_sl));
  checkb "similarity lowers to sim-pair" true
    (is_sim (plan_of sim_pattern sim_sl));
  checkb "no hash in the reference plan" true
    (is_nested (plan_of ~optimize:false eq_pattern eq_sl));
  checkb "no sim-pair in the reference plan" true
    (is_nested (plan_of ~optimize:false sim_pattern sim_sl));
  (* A 1-document build side is below the planner's threshold: the
     quadratic term is already gone, so signature construction would be
     pure overhead. *)
  let tiny_coll =
    let c = Collection.create "tiny" in
    (match Collection.add_xml c "<proceedings><confYear>1999</confYear></proceedings>" with
    | Ok _ -> ()
    | Error _ -> failwith "bad xml");
    Collection.snapshot c
  in
  checkb "tiny build side falls back to nested loop" true
    (is_nested
       (Planner.plan_join seo dblp_coll tiny_coll ~pattern:sim_pattern
          ~sl:sim_sl));
  (* Key orientation is normalized: writing the atom right-to-left must
     still be recognized. *)
  let open Pattern in
  let flipped =
    v
      (node 0 [ ad (node 1 [ pc (leaf 2) ]); ad (node 3 [ pc (leaf 4) ]) ])
      (Condition.conj
         [
           Condition.tag_eq 0 Toss_tax.Algebra.prod_root_tag;
           Condition.tag_eq 1 "inproceedings";
           Condition.tag_eq 2 "year";
           Condition.tag_eq 3 "proceedings";
           Condition.tag_eq 4 "confYear";
           Condition.Cmp (Condition.Content 4, Condition.Eq, Condition.Content 2);
         ])
  in
  checkb "flipped equality still hashes" true
    (is_hash (plan_of flipped [ 1; 3 ]));
  match (plan_of flipped [ 1; 3 ]).Plan.root with
  | Plan.Join { pairing = Plan.Hash [ (l, r) ]; _ } ->
      checkb "left key term is the left side's" true (l = Condition.Content 2);
      checkb "right key term is the right side's" true (r = Condition.Content 4)
  | _ -> Alcotest.fail "expected a single-key hash pair"

(* --------------------- unit: rewrite cache ------------------------ *)

let test_rewrite_cache () =
  let direct = Seo.isa_below seo "database conference" in
  let cached = Rewrite.isa_below seo "database conference" in
  checkb "cached expansion matches Seo" true (cached = direct);
  checkb "second call stable" true
    (Rewrite.isa_below seo "database conference" = direct);
  checkb "similar terms cached too" true
    (Rewrite.similar_terms seo "VLDB" = Seo.similar_terms seo "VLDB")

(* The expansion cache is keyed on the physical SEO value. Swapping the
   SEO — or just its ε, which always means building a new SEO since the
   type is immutable — must never serve the previous ontology's
   expansions. Regression test: interleave two SEOs that give different
   answers for the same constants and require every cached answer to
   match a fresh uncached walk. *)
let test_rewrite_cache_invalidation () =
  let module Hierarchy = Toss_hierarchy.Hierarchy in
  let module Ontology = Toss_ontology.Ontology in
  let module Levenshtein = Toss_similarity.Levenshtein in
  let seo_a =
    Seo.create_exn ~metric:Levenshtein.metric ~eps:0.5
      (Ontology.of_list
         [ (Ontology.isa, Hierarchy.of_pairs [ ("model", "article") ]) ])
  in
  let seo_b =
    Seo.create_exn ~metric:Levenshtein.metric ~eps:1.0
      (Ontology.of_list
         [ (Ontology.isa,
            Hierarchy.of_pairs
              [ ("model", "article"); ("models", "article"); ("note", "article") ]) ])
  in
  (* The two ontologies genuinely disagree, so a stale hit is visible. *)
  checkb "fixture: ontologies disagree on isa" true
    (Seo.isa_below seo_a "article" <> Seo.isa_below seo_b "article");
  checkb "fixture: eps changes similarity" true
    (Seo.similar_terms seo_a "model" <> Seo.similar_terms seo_b "model");
  List.iter
    (fun seo ->
      checkb "isa expansion follows the live SEO" true
        (Rewrite.isa_below seo "article" = Seo.isa_below seo "article");
      checkb "similar expansion follows the live SEO" true
        (Rewrite.similar_terms seo "model" = Seo.similar_terms seo "model");
      checkb "part expansion follows the live SEO" true
        (Rewrite.part_below seo "article" = Seo.part_below seo "article"))
    [ seo_a; seo_b; seo_a; seo_b; seo_a ]

(* --------------- per-document cost of a selective query -------------- *)

(* One selective [~] author query over 50 and over 200 one-paper
   documents. The 150 added documents cannot match, so what they cost
   is the compiled plan's per-document overhead; it is counted in
   allocated words ([Gc.minor_words]), which a given build makes the
   same on every run, so the bound is deterministic. A document the
   prune rejects costs no arena pass, span, histogram observation or
   dedup table: a few dozen words, where an arena pass over a one-paper
   document costs over 400. *)
let test_per_document_words () =
  let papers =
    let c = Corpus.generate ~seed:23 ~n_papers:200 () in
    match (Dblp_gen.render ~seed:23 c).Dblp_gen.tree with
    | Tree.Element { children; _ } -> children
    | Tree.Text _ -> []
  in
  checki "one document per paper" 200 (List.length papers);
  let coll n =
    let c = Collection.create "bib" in
    List.iteri (fun i t -> if i < n then ignore (Collection.add_document c t)) papers;
    Collection.snapshot c
  in
  let author =
    match List.hd papers with
    | Tree.Element { children; _ } ->
        List.find_map
          (function
            | Tree.Element { tag = "author"; children = [ Tree.Text a ]; _ } -> Some a
            | _ -> None)
          children
        |> Option.get
    | Tree.Text _ -> assert false
  in
  let q =
    match
      Tql.parse
        (Printf.sprintf
           "MATCH #1:inproceedings(/#2:author) WHERE #2.content ~ \"%s\" SELECT #1"
           author)
    with
    | Ok { Tql.pattern; target = Tql.Select sl } -> (pattern, sl)
    | _ -> Alcotest.fail "query does not parse as a selection"
  in
  let seo =
    match
      Seo.of_documents ~metric:Workload.experiment_metric ~eps:2.0
        (List.filteri (fun i _ -> i < 50) papers |> List.map Doc.of_tree)
    with
    | Ok seo -> seo
    | Error msg -> failwith msg
  in
  checkb "the author is an ontology term" true (Seo.knows_term seo author);
  let run coll =
    let pattern, sl = q in
    List.length (fst (Executor.select seo coll ~pattern ~sl))
  in
  let words coll =
    ignore (run coll);
    let before = Gc.minor_words () in
    let results = run coll in
    (Gc.minor_words () -. before, results)
  in
  let w50, r50 = words (coll 50) and w200, r200 = words (coll 200) in
  checkb "the query is selective" true (r50 >= 1 && r50 <= 5);
  checki "the added documents add no result" r50 r200;
  let per_doc = (w200 -. w50) /. 150. in
  if per_doc > 256. then
    Alcotest.failf "%.0f words per added document (bound 256)" per_doc

let () =
  Alcotest.run "toss_planner"
    [
      ( "equivalence",
        [
          Alcotest.test_case "selection workload (50 query/mode runs)" `Quick
            test_selection_equivalence;
          Alcotest.test_case "multi-document collection" `Quick
            test_selection_equivalence_multidoc;
          Alcotest.test_case "pruning keeps matching docs" `Quick
            test_sigmod_hits_equivalence;
          Alcotest.test_case "similarity join" `Quick
            test_join_equivalence_similarity;
          Alcotest.test_case "equi join (hash vs nested loop)" `Quick
            test_join_equivalence_hash;
        ] );
      ( "planner units",
        [
          Alcotest.test_case "selectivity estimation" `Quick test_estimate_rows;
          Alcotest.test_case "scan ordering" `Quick test_scan_ordering;
          Alcotest.test_case "pairing strategy" `Quick test_pairing_choice;
          Alcotest.test_case "rewrite expansion cache" `Quick test_rewrite_cache;
          Alcotest.test_case "cache invalidation on SEO/eps change" `Quick
            test_rewrite_cache_invalidation;
          Alcotest.test_case "words per document a selective query skips" `Quick
            test_per_document_words;
        ] );
    ]
