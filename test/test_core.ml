(* Tests for the TOSS core: conversion functions, SEO contexts, the
   ontology-aware condition semantics (Section 5.1.1), query rewriting and
   the three-phase executor (Section 6). *)

module Tree = Toss_xml.Tree
module Doc = Tree.Doc
module Pattern = Toss_tax.Pattern
module Condition = Toss_tax.Condition
module Algebra = Toss_tax.Algebra
module Collection = Toss_store.Collection
module Hierarchy = Toss_hierarchy.Hierarchy
module Ontology = Toss_ontology.Ontology
module Conversion = Toss_core.Conversion
module Seo = Toss_core.Seo
module Oes = Toss_core.Oes
module Toss_condition = Toss_core.Toss_condition
module Toss_algebra = Toss_core.Toss_algebra
module Rewrite = Toss_core.Rewrite
module Executor = Toss_core.Executor
module Planner = Toss_core.Planner
module Plan = Toss_core.Plan
module Workload = Toss_data.Workload

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Conversion functions                                                 *)
(* ------------------------------------------------------------------ *)

let test_conversion_identity () =
  checkb "identity always exists" true (Conversion.exists Conversion.empty ~from:"x" ~into:"x");
  checkb "identity converts" true
    (Conversion.convert Conversion.empty ~from:"x" ~into:"x" "v" = Some "v")

let test_conversion_direct_and_composed () =
  let t = Conversion.standard in
  checkb "direct" true (Conversion.exists t ~from:"int" ~into:"float");
  checkb "composed mm->m via cm" true (Conversion.exists t ~from:"mm" ~into:"m");
  checkb "no reverse" false (Conversion.exists t ~from:"float" ~into:"int");
  checkb "mm to m" true (Conversion.convert t ~from:"mm" ~into:"m" "2000" = Some "2");
  checkb "year to float path" true (Conversion.convert t ~from:"year" ~into:"float" "1999" = Some "1999")

let test_conversion_duplicate_rejected () =
  Alcotest.check_raises "duplicate registration"
    (Invalid_argument "Conversion.register: a -> b already registered") (fun () ->
      ignore
        (Conversion.empty
        |> Conversion.register ~from:"a" ~into:"b" Fun.id
        |> Conversion.register ~from:"a" ~into:"b" Fun.id))

let test_conversion_coherence () =
  (* Two paths a->c that agree. *)
  let ok =
    Conversion.empty
    |> Conversion.register ~from:"a" ~into:"b" (fun s -> s ^ "!")
    |> Conversion.register ~from:"b" ~into:"c" (fun s -> s ^ "?")
    |> Conversion.register ~from:"a" ~into:"c" (fun s -> s ^ "!?")
  in
  (match Conversion.check_coherence ok ~samples:[ ("a", "v") ] with
  | Ok () -> ()
  | Error es -> Alcotest.fail (String.concat "; " es));
  (* Two paths that disagree. *)
  let bad =
    Conversion.empty
    |> Conversion.register ~from:"a" ~into:"b" (fun s -> s ^ "!")
    |> Conversion.register ~from:"b" ~into:"c" (fun s -> s ^ "?")
    |> Conversion.register ~from:"a" ~into:"c" (fun s -> s ^ "XX")
  in
  match Conversion.check_coherence bad ~samples:[ ("a", "v") ] with
  | Ok () -> Alcotest.fail "incoherence not detected"
  | Error _ -> ()

let test_conversion_standard_coherent () =
  match
    Conversion.check_coherence Conversion.standard
      ~samples:[ ("mm", "3000"); ("year", "1999"); ("int", "5") ]
  with
  | Ok () -> ()
  | Error es -> Alcotest.fail (String.concat "; " es)

(* ------------------------------------------------------------------ *)
(* SEO contexts and the TOSS condition semantics                        *)
(* ------------------------------------------------------------------ *)

let db =
  Toss_xml.Parser.parse_exn
    {|<dblp>
        <inproceedings key="u1">
          <author>Jeffrey D. Ullman</author>
          <title>Principles of Database Systems</title>
          <booktitle>PODS</booktitle><year>1998</year>
        </inproceedings>
        <inproceedings key="u2">
          <author>J. D. Ullman</author>
          <title>Querying Semistructured Data</title>
          <booktitle>SIGMOD Conference</booktitle><year>1999</year>
        </inproceedings>
        <inproceedings key="w1">
          <author>Jennifer Widom</author>
          <title>Active Database Systems</title>
          <booktitle>ICML</booktitle><year>1999</year>
        </inproceedings>
      </dblp>|}

let seo =
  match
    Seo.of_documents ~metric:Workload.experiment_metric ~eps:2.0 [ Doc.of_tree db ]
  with
  | Ok seo -> seo
  | Error msg -> failwith msg

let test_seo_accessors () =
  checkb "eps" true (Seo.eps seo = 2.0);
  checkb "enhancement present" true (Seo.enhancement seo <> None);
  checkb "isa hierarchy non-empty" true (not (Hierarchy.is_empty (Seo.isa_hierarchy seo)));
  checkb "part-of from nesting" true (Seo.leq_part seo "author" "inproceedings");
  checkb "knows stored author" true (Seo.knows_term seo "Jeffrey D. Ullman")

let test_seo_similar () =
  checkb "initialized name" true (Seo.similar seo "J. D. Ullman" "Jeffrey D. Ullman");
  checkb "different people" false (Seo.similar seo "Jennifer Widom" "Jeffrey D. Ullman");
  checkb "identity" true (Seo.similar seo "anything at all" "anything at all");
  (* Fallback for strings outside the ontology. *)
  checkb "unknown pair via raw distance" true (Seo.similar seo "zzzxy" "zzzxx");
  checkb "unknown pair too far" false (Seo.similar seo "zzzxy" "qqqqq")

let test_seo_similar_terms () =
  let terms = Seo.similar_terms seo "Jeffrey D. Ullman" in
  checkb "expansion includes the initialized variant" true (List.mem "J. D. Ullman" terms);
  checkb "expansion excludes other people" false (List.mem "Jennifer Widom" terms)

let test_seo_isa () =
  checkb "venue below category" true (Seo.leq_isa seo "PODS" "database conference");
  checkb "category below conference" true
    (Seo.leq_isa seo "database conference" "conference");
  checkb "ICML not a database conference" false
    (Seo.leq_isa seo "ICML" "database conference");
  checkb "below set contains venues" true
    (List.mem "PODS" (Seo.isa_below seo "database conference"))

let env_for doc pairs label = Option.map (fun n -> (doc, n)) (List.assoc_opt label pairs)

let test_toss_condition_eval () =
  let doc = Doc.of_tree db in
  let authors = Doc.by_tag doc "author" in
  let env = env_for doc [ (2, List.nth authors 1) ] in
  (* node 2 is "J. D. Ullman" *)
  checkb "sim against canonical" true
    (Toss_condition.eval seo env (Condition.content_sim 2 "Jeffrey D. Ullman"));
  checkb "sim respects people" false
    (Toss_condition.eval seo env (Condition.content_sim 2 "Jennifer Widom"));
  let venues = Doc.by_tag doc "booktitle" in
  let env = env_for doc [ (3, List.hd venues) ] in
  checkb "isa through lexicon" true
    (Toss_condition.eval seo env (Condition.content_isa 3 "database conference"));
  checkb "isa negative" false
    (Toss_condition.eval seo env (Condition.content_isa 3 "machine learning conference"))

let test_toss_condition_part_of () =
  let doc = Doc.of_tree db in
  let authors = Doc.by_tag doc "author" in
  let env = env_for doc [ (2, List.hd authors) ] in
  checkb "tag part_of document root" true
    (Toss_condition.eval seo env
       (Condition.Part_of (Condition.Tag 2, Condition.Str "dblp")));
  checkb "tag part_of paper element" true
    (Toss_condition.eval seo env
       (Condition.Part_of (Condition.Tag 2, Condition.Str "inproceedings")))

let test_toss_condition_instance_below_above () =
  let doc = Doc.of_tree db in
  let years = Doc.by_tag doc "year" in
  let env = env_for doc [ (4, List.hd years) ] in
  (* 1998 has inferred primitive type year. *)
  checkb "instance_of primitive type" true
    (Toss_condition.eval seo env
       (Condition.Instance_of (Condition.Content 4, Condition.Str "year")));
  let venues = Doc.by_tag doc "booktitle" in
  let env = env_for doc [ (3, List.hd venues) ] in
  checkb "below = instance or subtype" true
    (Toss_condition.eval seo env
       (Condition.Below (Condition.Content 3, Condition.Str "conference")));
  checkb "above inverts below" true
    (Toss_condition.eval seo env
       (Condition.Above (Condition.Str "conference", Condition.Content 3)));
  checkb "subtype_of needs ontology terms" false
    (Toss_condition.eval seo env
       (Condition.Subtype_of (Condition.Str "no-such-term", Condition.Str "conference")))

let test_toss_condition_conversion_compare () =
  (* year 1998 vs int 1998: converted to a common type and equal. *)
  checkb "cross-type equality" true
    (Toss_condition.compare_converted seo Condition.Eq "1998" "1998");
  checkb "year vs float" true
    (Toss_condition.compare_converted seo Condition.Lt "1998" "1998.5");
  checkb "string comparison untouched" true
    (Toss_condition.compare_converted seo Condition.Eq "PODS" "PODS")

let test_well_typed () =
  checkb "convertible constants" true
    (Toss_condition.well_typed seo
       (Condition.Cmp (Condition.Str "1998", Condition.Le, Condition.Str "12.5")));
  checkb "non-atoms optimistic" true (Toss_condition.well_typed seo Condition.True)

(* ------------------------------------------------------------------ *)
(* TAX containment: every TAX answer is a TOSS answer                   *)
(* ------------------------------------------------------------------ *)

let ullman_pattern =
  Pattern.v
    (Pattern.node 1 [ Pattern.pc (Pattern.leaf 2); Pattern.pc (Pattern.leaf 3) ])
    (Condition.conj
       [
         Condition.tag_eq 1 "inproceedings";
         Condition.tag_eq 2 "author";
         Condition.tag_eq 3 "booktitle";
         Condition.content_sim 2 "Jeffrey D. Ullman";
         Condition.content_isa 3 "PODS";
       ])

let test_toss_contains_tax () =
  let tax = Algebra.select ~pattern:ullman_pattern ~sl:[ 1 ] [ db ] in
  let toss = Toss_algebra.select seo ~pattern:ullman_pattern ~sl:[ 1 ] [ db ] in
  checkb "every TAX witness is a TOSS witness" true
    (List.for_all (fun t -> List.exists (Tree.equal t) toss) tax);
  checkb "TOSS finds at least as much" true (List.length toss >= List.length tax)

let test_toss_algebra_ops () =
  let c1 = [ Tree.leaf "x" "1" ] and c2 = [ Tree.leaf "x" "1"; Tree.leaf "x" "2" ] in
  checki "union" 2 (List.length (Toss_algebra.union c1 c2));
  checki "intersect" 1 (List.length (Toss_algebra.intersect c1 c2));
  checki "difference" 1 (List.length (Toss_algebra.difference c2 c1));
  checki "product" 2 (List.length (Toss_algebra.product c1 c2))

(* ------------------------------------------------------------------ *)
(* OES instances                                                        *)
(* ------------------------------------------------------------------ *)

let test_oes () =
  let oes = Oes.of_tree db in
  checkb "doc kept" true (Doc.size (Oes.doc oes) = Doc.size (Doc.of_tree db));
  checkb "ontology has part-of" true
    (Hierarchy.leq (Ontology.get Ontology.part_of (Oes.ontology oes)) "author"
       "inproceedings");
  let years = Doc.by_tag (Oes.doc oes) "year" in
  checkb "content type inferred" true
    (Oes.content_type oes (List.hd years) = Toss_xml.Value_type.Year);
  checkb "tags are strings" true
    (Oes.tag_type oes 0 = Toss_xml.Value_type.String)

(* ------------------------------------------------------------------ *)
(* Rewriting                                                            *)
(* ------------------------------------------------------------------ *)

let test_rewrite_label_queries () =
  let queries = Rewrite.label_queries ~mode:Rewrite.Toss seo ullman_pattern in
  checki "a query per label" 3 (List.length queries);
  let q2 = Toss_store.Xpath.to_string (List.assoc 2 queries) in
  (* The ~ expansion must turn into a disjunction of exact tests over the
     similar spellings. *)
  checkb "expansion mentions the variant" true
    (let needle = "J. D. Ullman" in
     let nh = String.length q2 and nn = String.length needle in
     let rec go i = i + nn <= nh && (String.sub q2 i nn = needle || go (i + 1)) in
     go 0);
  (* In TAX mode the same label gets a single exact test. *)
  let tax_queries = Rewrite.label_queries ~mode:Rewrite.Tax seo ullman_pattern in
  let q2_tax = Toss_store.Xpath.to_string (List.assoc 2 tax_queries) in
  checks "tax keeps exact" "//inproceedings/author[.='Jeffrey D. Ullman']" q2_tax

let test_rewrite_isa_tag_expansion () =
  (* #1.tag isa paper expands into the tags below "paper". *)
  let p =
    Pattern.v (Pattern.leaf 1)
      (Condition.Isa (Condition.Tag 1, Condition.Str "paper"))
  in
  let queries = Rewrite.label_queries ~mode:Rewrite.Toss seo p in
  let q = Toss_store.Xpath.to_string (List.assoc 1 queries) in
  checkb "inproceedings among the tag options" true
    (let needle = "//inproceedings" in
     let nh = String.length q and nn = String.length needle in
     let rec go i = i + nn <= nh && (String.sub q i nn = needle || go (i + 1)) in
     go 0)

let test_expand_condition () =
  let c = Condition.content_sim 2 "Jeffrey D. Ullman" in
  let expanded = Rewrite.expand_condition seo c in
  (* The expansion is a disjunction of equalities containing the variant. *)
  let atoms = Condition.atoms expanded in
  checkb "several exact atoms" true (List.length atoms >= 2);
  checkb "all are equalities" true
    (List.for_all
       (fun a -> match a with Condition.Cmp (_, Condition.Eq, _) -> true | _ -> false)
       atoms)

(* ------------------------------------------------------------------ *)
(* Executor: agreement with the in-memory algebra                       *)
(* ------------------------------------------------------------------ *)

let collection_of trees =
  let c = Collection.create "test" in
  List.iter (fun t -> ignore (Collection.add_document c t)) trees;
  Collection.snapshot c

let test_executor_select_agrees_with_algebra () =
  let coll = collection_of [ db ] in
  List.iter
    (fun mode ->
      let results, stats = Executor.select ~mode seo coll ~pattern:ullman_pattern ~sl:[ 1 ] in
      let reference =
        match mode with
        | Executor.Tax -> Algebra.select ~pattern:ullman_pattern ~sl:[ 1 ] [ db ]
        | Executor.Toss -> Toss_algebra.select seo ~pattern:ullman_pattern ~sl:[ 1 ] [ db ]
      in
      checkb "same cardinality" true (List.length results = List.length reference);
      checkb "same trees" true
        (List.for_all (fun t -> List.exists (Tree.equal t) reference) results);
      checkb "phases measured" true (Executor.total_s stats.Executor.phases >= 0.);
      checki "results counted" (List.length results) stats.Executor.n_results)
    [ Executor.Tax; Executor.Toss ]

let test_executor_join () =
  let sigmod =
    Toss_xml.Parser.parse_exn
      {|<proceedings>
          <conference>Symposium on Principles of Database Systems</conference>
          <articles>
            <article key="s1"><title>Principles of Database Systems</title></article>
            <article key="s2"><title>Something Entirely Different</title></article>
          </articles>
        </proceedings>|}
  in
  let seo2 =
    match
      Seo.of_documents ~metric:Workload.experiment_metric ~eps:2.0
        [ Doc.of_tree db; Doc.of_tree sigmod ]
    with
    | Ok s -> s
    | Error m -> failwith m
  in
  let pattern, sl = Toss_data.Workload.join_query () in
  let left = collection_of [ db ] in
  let right = collection_of [ sigmod ] in
  let results, stats = Executor.join seo2 left right ~pattern ~sl in
  (* u1's title equals s1's title; nothing else joins. *)
  checki "one join result" 1 (List.length results);
  Alcotest.(check (list (pair string string))) "key pair"
    [ ("u1", "s1") ]
    (Toss_data.Workload.result_key_pairs results);
  (* The compiled default issues no store queries; the interpreted
     pipeline records scans for both sides and must agree on results. *)
  checkb "compiled join issues no queries" true (stats.Executor.queries = []);
  let results_i, stats_i = Executor.join ~compile:false seo2 left right ~pattern ~sl in
  checkb "interpreted join agrees" true (results_i = results);
  checkb "queries recorded for both sides" true
    (List.length stats_i.Executor.queries >= 4);
  (* The in-memory TOSS join agrees. *)
  let reference = Toss_algebra.join seo2 ~pattern ~sl [ db ] [ sigmod ] in
  checki "agrees with algebra join" (List.length reference) (List.length results)

let test_executor_join_arity_check () =
  let bad = Pattern.v (Pattern.leaf 1) Condition.True in
  let coll = collection_of [ db ] in
  Alcotest.check_raises "root must have two children"
    (Invalid_argument "Executor.join: the pattern root must have exactly two children")
    (fun () -> ignore (Executor.join seo coll coll ~pattern:bad ~sl:[]))

exception Cancelled

let test_executor_compiled_cancellation () =
  let coll = collection_of [ db ] in
  (* The cooperative checkpoint fires once per arena node inside the
     compiled matcher's loop, so a check that trips after a few calls
     cancels the match mid-arena: the exception unwinds the whole
     select and no partial witnesses escape. *)
  let calls = ref 0 in
  let check () =
    incr calls;
    if !calls > 3 then raise Cancelled
  in
  (try
     let results, _ = Executor.select ~check seo coll ~pattern:ullman_pattern ~sl:[ 1 ] in
     Alcotest.failf "expected cancellation, got %d results" (List.length results)
   with Cancelled -> ());
  checkb "check was called inside the arena loop" true (!calls > 3);
  (* An unconditional check leaves the run untouched. *)
  let results, _ =
    Executor.select ~check:(fun () -> ()) seo coll ~pattern:ullman_pattern ~sl:[ 1 ]
  in
  let reference, _ = Executor.select seo coll ~pattern:ullman_pattern ~sl:[ 1 ] in
  checkb "benign check does not change answers" true (results = reference)

(* ------------------------------------------------------------------ *)
(* More rewrite coverage                                                *)
(* ------------------------------------------------------------------ *)

let test_rewrite_part_of_content () =
  (* part_of on content expands through the part-of hierarchy: the
     nesting-derived hierarchy knows author is part of inproceedings. *)
  let p =
    Pattern.v (Pattern.leaf 1)
      (Condition.Part_of (Condition.Content 1, Condition.Str "dblp"))
  in
  let queries = Rewrite.label_queries ~mode:Rewrite.Toss seo p in
  let q = Toss_store.Xpath.to_string (List.assoc 1 queries) in
  checkb "expansion generated" true (String.length q > String.length "//*")

let test_rewrite_contains_pushed () =
  let p =
    Pattern.v (Pattern.leaf 1)
      (Condition.And
         ( Condition.tag_eq 1 "title",
           Condition.Contains (Condition.Content 1, "Database") ))
  in
  let queries = Rewrite.label_queries ~mode:Rewrite.Toss seo p in
  checks "contains becomes a predicate" "//title[contains(.,'Database')]"
    (Toss_store.Xpath.to_string (List.assoc 1 queries))

let test_rewrite_max_expansion_degrades () =
  (* With max_expansion 1, the isa expansion cannot be pushed, so the
     query keeps only structure; correctness comes from assembly. *)
  let p =
    Pattern.v (Pattern.leaf 1)
      (Condition.And
         ( Condition.tag_eq 1 "booktitle",
           Condition.content_isa 1 "database conference" ))
  in
  let queries = Rewrite.label_queries ~mode:Rewrite.Toss ~max_expansion:1 seo p in
  checks "no predicate pushed" "//booktitle"
    (Toss_store.Xpath.to_string (List.assoc 1 queries));
  (* And an interpreted plan built on the narrow rewrite still answers
     correctly: assembly re-checks what the store could not filter. *)
  let coll =
    let c = Toss_store.Collection.create "t" in
    ignore (Toss_store.Collection.add_document c db);
    Toss_store.Collection.snapshot c
  in
  let run plan =
    Plan.run ~eval:(Toss_condition.evaluator seo) ~coll_of:(fun _ -> coll) plan
  in
  let scans =
    List.map
      (fun (scan_label, xpath) ->
        Plan.Label_scan { Plan.scan_label; xpath; est_rows = None })
      queries
  in
  let spec =
    { Plan.side = Plan.Single; sub_pattern = p; sub_sl = []; pin_root = false }
  in
  let input = Plan.Candidate_filter { side = Plan.Single; scans } in
  let narrow, narrow_stats =
    run { Plan.mode = Rewrite.Toss; root = Plan.Embed { spec; input } }
  in
  let wide, wide_stats =
    run (Planner.plan_select ~compile:false seo coll ~pattern:p ~sl:[])
  in
  checkb "the pushed-down plan has answers" true (wide <> []);
  checkb "same answers regardless of pushdown" true (narrow = wide);
  checkb "the narrow scan fetches more candidates" true
    (narrow_stats.Plan.n_candidates > wide_stats.Plan.n_candidates)

(* ------------------------------------------------------------------ *)
(* Explain                                                              *)
(* ------------------------------------------------------------------ *)

module Explain = Toss_core.Explain

let test_explain () =
  let plan = Explain.explain seo ullman_pattern in
  checki "three label queries" 3 (List.length plan.Explain.label_queries);
  (* One ~ and one isa expansion. *)
  checki "two expansions" 2 (List.length plan.Explain.expansions);
  let sim = List.find (fun e -> e.Explain.operator = "~") plan.Explain.expansions in
  checkb "sim expansion has the variant" true
    (List.mem "J. D. Ullman" sim.Explain.terms);
  (* All atoms of this pattern are node-local conjuncts. *)
  checki "no residual atoms" 0 (List.length plan.Explain.residual_atoms);
  checkb "renders" true (String.length (Explain.to_string plan) > 50)

let test_explain_tax () =
  let plan = Explain.explain ~mode:Rewrite.Tax seo ullman_pattern in
  checki "no expansions under TAX" 0 (List.length plan.Explain.expansions);
  (* Cross-label atoms are residual. *)
  let join_pattern, _ = Toss_data.Workload.join_query () in
  let plan = Explain.explain seo join_pattern in
  checkb "cross-label sim is residual" true
    (List.exists
       (fun a ->
         let nh = String.length a in
         nh > 0
         && (let needle = "~" in
             let nn = String.length needle in
             let rec go i = i + nn <= nh && (String.sub a i nn = needle || go (i + 1)) in
             go 0))
       plan.Explain.residual_atoms)

(* ------------------------------------------------------------------ *)
(* Session facade                                                       *)
(* ------------------------------------------------------------------ *)

module Session = Toss_core.Session

let session_query = {|MATCH #1:inproceedings(/#2:author, /#3:booktitle)
  WHERE #2.content ~ "Jeffrey D. Ullman" AND #3.content isa "database conference"
  SELECT #1|}

let test_session_basics () =
  let s = Session.create ~metric:Workload.experiment_metric ~eps:2.0 () in
  Session.add_document s ~collection:"dblp" db;
  Alcotest.(check (list string)) "collections" [ "dblp" ] (Session.collection_names s);
  match Session.query s ~collection:"dblp" session_query with
  | Error msg -> Alcotest.fail msg
  | Ok answer ->
      checkb "finds both Ullman variants" true (List.length answer.Session.trees >= 2);
      checkb "stats attached" true (answer.Session.stats <> None)

let test_session_seo_cache_invalidation () =
  let s = Session.create ~metric:Workload.experiment_metric ~eps:2.0 () in
  Session.add_document s ~collection:"dblp" db;
  let seo1 = Result.get_ok (Session.seo s) in
  let seo1' = Result.get_ok (Session.seo s) in
  checkb "cached" true (seo1 == seo1');
  Session.add_document s ~collection:"dblp" (Tree.leaf "extra" "x");
  let seo2 = Result.get_ok (Session.seo s) in
  checkb "rebuilt after insert" true (not (seo1 == seo2))

let test_session_projection () =
  let s = Session.create ~metric:Workload.experiment_metric ~eps:2.0 () in
  Session.add_document s ~collection:"dblp" db;
  match
    Session.query s ~collection:"dblp"
      {|MATCH #1:inproceedings(/#2:author) PROJECT #2|}
  with
  | Error msg -> Alcotest.fail msg
  | Ok answer ->
      checki "three authors" 3 (List.length answer.Session.trees);
      checkb "no stats for projections" true (answer.Session.stats = None)

let test_session_join () =
  let s = Session.create ~metric:Workload.experiment_metric ~eps:2.0 () in
  Session.add_document s ~collection:"dblp" db;
  Session.add_document s ~collection:"pages"
    (Toss_xml.Parser.parse_exn
       {|<proceedings><articles>
           <article key="s1"><title>Principles of Database Systems</title></article>
         </articles></proceedings>|});
  let join_tql =
    {|MATCH #0:tax_prod_root(//#1:inproceedings(/#2:title), //#3:article(/#4:title))
      WHERE #2.content ~ #4.content
      SELECT #1, #3|}
  in
  match Session.join s ~left:"dblp" ~right:"pages" join_tql with
  | Error msg -> Alcotest.fail msg
  | Ok answer -> checki "one joined pair" 1 (List.length answer.Session.trees)

let test_session_errors () =
  let s = Session.create () in
  (match Session.query s ~collection:"nope" "MATCH #1" with
  | Error msg -> checkb "unknown collection reported" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "expected an error");
  Session.add_document s ~collection:"c" (Tree.leaf "a" "x");
  (match Session.query s ~collection:"c" "MATCH" with
  | Error msg -> checkb "tql error prefixed" true (String.length msg > 4)
  | Ok _ -> Alcotest.fail "expected a TQL error");
  match Session.add_xml s ~collection:"c" "<broken>" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected a parse error"

(* ------------------------------------------------------------------ *)
(* TQL                                                                  *)
(* ------------------------------------------------------------------ *)

module Tql = Toss_core.Tql

let test_tql_parse_basic () =
  let q =
    Tql.parse_exn
      {|MATCH #1:inproceedings(/#2:author, /#3:booktitle)
        WHERE #2.content ~ "Jeffrey D. Ullman"
          AND #3.content isa "database conference"
        SELECT #1|}
  in
  Alcotest.(check (list int)) "labels" [ 1; 2; 3 ] (Pattern.labels q.Tql.pattern);
  Alcotest.(check (list int)) "sl" [ 1 ] (Tql.sl q);
  (* The :tag shorthands became conjuncts, so the full condition has five
     atoms like the paper's workload queries. *)
  checki "five atoms" 5 (List.length (Condition.atoms q.Tql.pattern.Pattern.condition))

let test_tql_equivalent_to_builder () =
  (* The TQL form of the quickstart query returns the same answers. *)
  let q =
    Tql.parse_exn
      {|MATCH #1:inproceedings(/#2:author, /#3:booktitle)
        WHERE #2.content ~ "Jeffrey D. Ullman" AND #3.content isa "database conference"
        SELECT #1|}
  in
  let built = Toss_algebra.select seo ~pattern:ullman_pattern ~sl:[ 1 ] [ db ] in
  ignore built;
  let toss = Toss_algebra.select seo ~pattern:q.Tql.pattern ~sl:(Tql.sl q) [ db ] in
  checkb "finds the Ullman papers" true (List.length toss >= 2)

let test_tql_edges_and_ops () =
  let q =
    Tql.parse_exn
      {|MATCH #1(//#2, /#3)
        WHERE contains(#2.content, "XML") OR NOT (#3.tag = "year")
          AND #2.content <= 10 AND #3.content part_of "dblp"|}
  in
  (match (Pattern.find q.Tql.pattern 2, Pattern.parent_label q.Tql.pattern 2) with
  | Some _, Some (1, Pattern.Ad) -> ()
  | _ -> Alcotest.fail "expected an ad edge to #2");
  match Pattern.parent_label q.Tql.pattern 3 with
  | Some (1, Pattern.Pc) -> ()
  | _ -> Alcotest.fail "expected a pc edge to #3"

let test_tql_project () =
  let q = Tql.parse_exn "MATCH #1:dblp(//#2:author) PROJECT #2" in
  (match q.Tql.target with
  | Tql.Project [ 2 ] -> ()
  | _ -> Alcotest.fail "expected PROJECT #2");
  Alcotest.(check (list int)) "sl of a projection is empty" [] (Tql.sl q)

let test_tql_roundtrip () =
  List.iter
    (fun text ->
      let q = Tql.parse_exn text in
      let reprinted = Tql.to_string q in
      let q' = Tql.parse_exn reprinted in
      checkb
        (Printf.sprintf "roundtrip of %s" text)
        true
        (q.Tql.pattern = q'.Tql.pattern && q.Tql.target = q'.Tql.target))
    [
      "MATCH #1";
      "MATCH #1(/#2, //#3) SELECT #2, #3";
      {|MATCH #1 WHERE #1.tag = "a" OR (#1.content != "b" AND NOT (#1.content > "c"))|};
      {|MATCH #1(/#2) WHERE #2.content ~ "x" AND #1.content above "org" PROJECT #2|};
      {|MATCH #1 WHERE contains(#1.content, "net") AND #1.content instance_of "year"|};
    ]

let test_tql_errors () =
  List.iter
    (fun text ->
      match Tql.parse text with
      | Ok _ -> Alcotest.fail ("expected a parse error: " ^ text)
      | Error _ -> ())
    [
      "";
      "MATCH";
      "MATCH #1(/#1)";
      "MATCH #1 WHERE";
      "MATCH #1 WHERE #2.tag =";
      "MATCH #1 SELECT";
      "MATCH #1 WHERE #1.label = \"x\"";
      "MATCH #1 trailing";
      {|MATCH #1 WHERE #1.content ~ "unterminated|};
    ]

let () =
  Alcotest.run "toss_core"
    [
      ( "conversion",
        [
          Alcotest.test_case "identity" `Quick test_conversion_identity;
          Alcotest.test_case "direct and composed" `Quick test_conversion_direct_and_composed;
          Alcotest.test_case "duplicates rejected" `Quick test_conversion_duplicate_rejected;
          Alcotest.test_case "coherence checking" `Quick test_conversion_coherence;
          Alcotest.test_case "standard registry coherent" `Quick
            test_conversion_standard_coherent;
        ] );
      ( "seo",
        [
          Alcotest.test_case "accessors" `Quick test_seo_accessors;
          Alcotest.test_case "similar" `Quick test_seo_similar;
          Alcotest.test_case "similar_terms expansion" `Quick test_seo_similar_terms;
          Alcotest.test_case "isa" `Quick test_seo_isa;
        ] );
      ( "toss conditions",
        [
          Alcotest.test_case "sim and isa" `Quick test_toss_condition_eval;
          Alcotest.test_case "part_of" `Quick test_toss_condition_part_of;
          Alcotest.test_case "instance_of, below, above" `Quick
            test_toss_condition_instance_below_above;
          Alcotest.test_case "conversion-aware comparison" `Quick
            test_toss_condition_conversion_compare;
          Alcotest.test_case "well-typedness" `Quick test_well_typed;
          Alcotest.test_case "TOSS answers contain TAX answers" `Quick test_toss_contains_tax;
          Alcotest.test_case "set and product operators" `Quick test_toss_algebra_ops;
          Alcotest.test_case "OES instances" `Quick test_oes;
        ] );
      ( "rewrite",
        [
          Alcotest.test_case "label queries" `Quick test_rewrite_label_queries;
          Alcotest.test_case "isa tag expansion" `Quick test_rewrite_isa_tag_expansion;
          Alcotest.test_case "condition expansion" `Quick test_expand_condition;
          Alcotest.test_case "part_of content expansion" `Quick
            test_rewrite_part_of_content;
          Alcotest.test_case "contains pushdown" `Quick test_rewrite_contains_pushed;
          Alcotest.test_case "expansion cap degrades gracefully" `Quick
            test_rewrite_max_expansion_degrades;
        ] );
      ( "executor",
        [
          Alcotest.test_case "select agrees with the algebra" `Quick
            test_executor_select_agrees_with_algebra;
          Alcotest.test_case "join across two stores" `Quick test_executor_join;
          Alcotest.test_case "join arity check" `Quick test_executor_join_arity_check;
          Alcotest.test_case "compiled mid-arena cancellation" `Quick
            test_executor_compiled_cancellation;
        ] );
      ( "session",
        [
          Alcotest.test_case "query through a session" `Quick test_session_basics;
          Alcotest.test_case "seo cache invalidation" `Quick
            test_session_seo_cache_invalidation;
          Alcotest.test_case "projection" `Quick test_session_projection;
          Alcotest.test_case "join" `Quick test_session_join;
          Alcotest.test_case "errors" `Quick test_session_errors;
        ] );
      ( "explain",
        [
          Alcotest.test_case "plan contents" `Quick test_explain;
          Alcotest.test_case "tax mode has no expansions" `Quick test_explain_tax;
        ] );
      ( "tql",
        [
          Alcotest.test_case "basic parse" `Quick test_tql_parse_basic;
          Alcotest.test_case "equivalent to built pattern" `Quick
            test_tql_equivalent_to_builder;
          Alcotest.test_case "edge kinds and operators" `Quick test_tql_edges_and_ops;
          Alcotest.test_case "projection target" `Quick test_tql_project;
          Alcotest.test_case "print/parse roundtrip" `Quick test_tql_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_tql_errors;
        ] );
    ]
