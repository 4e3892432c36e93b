(* Tests for string similarity measures, clique enumeration, and the SEA
   similarity-enhancement algorithm (paper Section 4.3, Figure 12,
   Example 11). *)

module Metric = Toss_similarity.Metric
module Levenshtein = Toss_similarity.Levenshtein
module Token = Toss_similarity.Token
module Name_rules = Toss_similarity.Name_rules
module Text_rules = Toss_similarity.Text_rules
module Clique = Toss_similarity.Clique
module Node_dist = Toss_similarity.Node_dist
module Sea = Toss_similarity.Sea
module Node = Toss_hierarchy.Node
module Hierarchy = Toss_hierarchy.Hierarchy

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))
let checkf_approx = Alcotest.(check (float 1e-3))

(* ------------------------------------------------------------------ *)
(* Levenshtein                                                          *)
(* ------------------------------------------------------------------ *)

let test_levenshtein_known () =
  checki "identical" 0 (Levenshtein.distance "kitten" "kitten");
  checki "kitten/sitting" 3 (Levenshtein.distance "kitten" "sitting");
  checki "empty vs word" 5 (Levenshtein.distance "" "abcde");
  checki "word vs empty" 5 (Levenshtein.distance "abcde" "");
  checki "example 11: relation/relational" 2 (Levenshtein.distance "relation" "relational");
  checki "example 11: model/models" 1 (Levenshtein.distance "model" "models");
  checki "substitution" 1 (Levenshtein.distance "cat" "car")

let test_levenshtein_within () =
  Alcotest.(check (option int)) "within 3" (Some 3)
    (Levenshtein.distance_within 3 "kitten" "sitting");
  Alcotest.(check (option int)) "not within 2" None
    (Levenshtein.distance_within 2 "kitten" "sitting");
  Alcotest.(check (option int)) "within 0 identical" (Some 0)
    (Levenshtein.distance_within 0 "abc" "abc");
  Alcotest.(check (option int)) "negative threshold" None
    (Levenshtein.distance_within (-1) "a" "a");
  Alcotest.(check (option int)) "length gap prunes" None
    (Levenshtein.distance_within 2 "abc" "abcdefgh")

let string_pair_gen =
  QCheck2.Gen.(pair (string_size ~gen:printable (int_range 0 12))
                 (string_size ~gen:printable (int_range 0 12)))

let prop_lev_symmetric =
  QCheck2.Test.make ~name:"levenshtein symmetric" ~count:200 string_pair_gen
    (fun (a, b) -> Levenshtein.distance a b = Levenshtein.distance b a)

let prop_lev_identity =
  QCheck2.Test.make ~name:"levenshtein identity" ~count:200
    QCheck2.Gen.(string_size ~gen:printable (int_range 0 12))
    (fun a -> Levenshtein.distance a a = 0)

let prop_lev_triangle =
  QCheck2.Test.make ~name:"levenshtein triangle inequality (strong measure)" ~count:200
    QCheck2.Gen.(triple (string_size ~gen:printable (int_range 0 8))
                   (string_size ~gen:printable (int_range 0 8))
                   (string_size ~gen:printable (int_range 0 8)))
    (fun (a, b, c) ->
      Levenshtein.distance a c <= Levenshtein.distance a b + Levenshtein.distance b c)

let prop_lev_within_agrees =
  QCheck2.Test.make ~name:"banded distance agrees with full DP" ~count:200
    string_pair_gen (fun (a, b) ->
      let d = Levenshtein.distance a b in
      match Levenshtein.distance_within 4 a b with
      | Some d' -> d = d' && d <= 4
      | None -> d > 4)

(* ------------------------------------------------------------------ *)
(* The shared tokenizer                                                 *)
(* ------------------------------------------------------------------ *)

let test_tokenize () =
  Alcotest.(check (list string)) "splits and lowercases" [ "hello"; "world"; "42" ]
    (Token.tokenize "Hello, World! 42");
  Alcotest.(check (list string)) "empty" [] (Token.tokenize "  .,; ")

(* ------------------------------------------------------------------ *)
(* Rule-based measures (calibrated to the paper's running examples)     *)
(* ------------------------------------------------------------------ *)

let test_name_rules_paper_values () =
  checkf_approx "GianLuigi concat" 0.1
    (Name_rules.distance "Gian Luigi Ferrari" "GianLuigi Ferrari");
  checkf_approx "Marco vs Mauro" 2.2 (Name_rules.distance "Marco Ferrari" "Mauro Ferrari");
  checkf_approx "different people" 6.5
    (Name_rules.distance "Marco Ferrari" "GianLuigi Ferrari")

let test_name_rules_variants () =
  let d = Name_rules.distance in
  checkf "identical" 0.0 (d "Jeffrey D. Ullman" "Jeffrey D. Ullman");
  checkf_approx "initial" 1.25 (d "J. Ullman" "Jeffrey Ullman");
  checkf_approx "matching initials are free" 0.0 (d "J. D. Ullman" "J. D. Ullman");
  checkf_approx "both given tokens initialized" 2.5
    (d "J. D. Ullman" "Jeffrey David Ullman");
  checkf_approx "initial plus dropped middle" 2.0 (d "J. Ullman" "Jeffrey D. Ullman");
  checkf_approx "dropped middle" 0.75 (d "Jeffrey Ullman" "Jeffrey D. Ullman");
  checkb "surname mismatch dominates" true (d "Jeff Ullman" "Jeff Widom" >= 6.0);
  checkb "symmetric" true
    (d "J. Ullman" "Jeffrey Ullman" = d "Jeffrey Ullman" "J. Ullman")

let test_name_rules_compatible () =
  checkb "within 2" true (Name_rules.distance "J. Ullman" "Jeffrey Ullman" <= 2.0);
  checkb "typo pair only within 3" true
    (let d = Name_rules.distance "Marco Ferrari" "Mauro Ferrari" in
     d > 2.0 && d <= 3.0);
  checkb "double initials only within 3" true
    (let d = Name_rules.distance "J. D. Ullman" "Jeffrey David Ullman" in
     d > 2.0 && d <= 3.0)

let test_text_rules () =
  let d = Text_rules.distance in
  checkf "identical" 0.0 (d "Efficient Indexing" "Efficient Indexing");
  checkf_approx "one abbreviation" 0.5 (d "Efficient Indexing" "Eff. Indexing");
  checkf_approx "two abbreviations" 1.0
    (d "Efficient Query Processing" "Eff. Query Proc.");
  checkb "dropping a token is expensive" true (d "web conference" "conference" > 3.0);
  checkb "typo in a token" true
    (let x = d "Efficient Indexing" "Efficient Indexding" in
     x > 0. && x <= 1.2)

(* ------------------------------------------------------------------ *)
(* Cliques                                                              *)
(* ------------------------------------------------------------------ *)

let sorted_cliques cs = List.sort compare (List.map (List.sort compare) cs)

(* The clique enumeration over an explicit undirected edge list. *)
let cliques_of_edges ~n edges =
  Clique.maximal_cliques ~n ~adjacent:(fun i j ->
      List.mem (i, j) edges || List.mem (j, i) edges)

let test_cliques_triangle_plus_pendant () =
  let cliques = cliques_of_edges ~n:4 [ (0, 1); (1, 2); (0, 2); (2, 3) ] in
  Alcotest.(check (list (list int))) "cliques" [ [ 0; 1; 2 ]; [ 2; 3 ] ]
    (sorted_cliques cliques)

let test_cliques_no_edges () =
  let cliques = Clique.maximal_cliques ~n:3 ~adjacent:(fun _ _ -> false) in
  Alcotest.(check (list (list int))) "all singletons" [ [ 0 ]; [ 1 ]; [ 2 ] ]
    (sorted_cliques cliques)

let test_cliques_complete () =
  let cliques = Clique.maximal_cliques ~n:4 ~adjacent:(fun _ _ -> true) in
  Alcotest.(check (list (list int))) "one clique" [ [ 0; 1; 2; 3 ] ]
    (sorted_cliques cliques)

let test_cliques_empty_graph () =
  checki "n=0" 0 (List.length (Clique.maximal_cliques ~n:0 ~adjacent:(fun _ _ -> false)))

let prop_cliques_are_cliques_and_maximal =
  let gen =
    QCheck2.Gen.(
      let* n = int_range 1 10 in
      let* edges =
        list_size (int_range 0 20) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
      in
      return (n, List.filter (fun (i, j) -> i <> j) edges))
  in
  QCheck2.Test.make ~name:"maximal cliques are maximal cliques covering all vertices"
    ~count:100 gen (fun (n, edges) ->
      let adj = Array.make_matrix n n false in
      List.iter
        (fun (i, j) ->
          adj.(i).(j) <- true;
          adj.(j).(i) <- true)
        edges;
      let cliques = cliques_of_edges ~n edges in
      let is_clique c =
        List.for_all (fun i -> List.for_all (fun j -> i = j || adj.(i).(j)) c) c
      in
      let is_maximal c =
        not
          (List.exists
             (fun v -> (not (List.mem v c)) && List.for_all (fun i -> adj.(v).(i)) c)
             (List.init n Fun.id))
      in
      let covers_all_vertices =
        List.for_all (fun v -> List.exists (List.mem v) cliques) (List.init n Fun.id)
      in
      List.for_all is_clique cliques
      && List.for_all is_maximal cliques
      && covers_all_vertices)

(* ------------------------------------------------------------------ *)
(* Node distance and SEA (Figure 12 / Example 11)                       *)
(* ------------------------------------------------------------------ *)

let test_node_dist () =
  let a = Node.of_list [ "model"; "models" ] in
  let b = Node.of_list [ "relation" ] in
  checkf "self distance" 0.0 (Node_dist.distance Levenshtein.metric a a);
  checkb "cross distance positive" true (Node_dist.distance Levenshtein.metric a b > 0.);
  checkb "within short-circuits" true
    (Node_dist.within Levenshtein.metric ~eps:1.0 a (Node.of_list [ "modelss"; "zzz" ]))

let example11_hierarchy =
  Hierarchy.of_pairs
    [
      ("relation", "data model");
      ("relational", "data model");
      ("model", "concept");
      ("models", "concept");
      ("data model", "concept");
    ]

let test_sea_example11 () =
  let e = Sea.enhance_exn ~metric:Levenshtein.metric ~eps:2.0 example11_hierarchy in
  let clusters = Sea.clusters e in
  let has strings =
    List.exists
      (fun n -> Node.strings n = List.sort String.compare strings)
      clusters
  in
  checkb "relation cluster" true (has [ "relation"; "relational" ]);
  checkb "model cluster" true (has [ "model"; "models" ]);
  checkb "similar predicate" true (Sea.similar e "relation" "relational");
  checkb "not similar" false (Sea.similar e "relation" "concept");
  checkb "merged node still below data model" true
    (Hierarchy.leq e.Sea.hierarchy "relational" "data model");
  Alcotest.(check (list string)) "similar_terms expansion"
    [ "relation"; "relational" ]
    (Sea.similar_terms e "relation")

let test_sea_conditions_hold () =
  let e = Sea.enhance_exn ~metric:Levenshtein.metric ~eps:2.0 example11_hierarchy in
  match Sea.check ~original:example11_hierarchy e with
  | Ok () -> ()
  | Error msgs -> Alcotest.fail (String.concat "; " msgs)

let test_sea_eps_zero_is_identity_like () =
  let e = Sea.enhance_exn ~metric:Levenshtein.metric ~eps:0.0 example11_hierarchy in
  checki "same node count" (Hierarchy.n_nodes example11_hierarchy)
    (List.length (Sea.clusters e));
  checkb "no cross-term similarity" false (Sea.similar e "relation" "relational")

let test_sea_inconsistency () =
  (* aaaa <= zzzzzz <= aaab with d(aaaa, aaab) = 1: merging the endpoints
     creates a cycle, so no existential-lift enhancement exists. *)
  let h = Hierarchy.of_pairs [ ("aaaa", "zzzzzz"); ("zzzzzz", "aaab") ] in
  checkb "inconsistent at eps 1" false
    (Sea.is_consistent ~metric:Levenshtein.metric ~eps:1.0 h);
  checkb "consistent at eps 0" true
    (Sea.is_consistent ~metric:Levenshtein.metric ~eps:0.0 h);
  checkb "universal lift consistent" true
    (Sea.is_consistent ~lift:Sea.Universal ~metric:Levenshtein.metric ~eps:1.0 h)

let test_sea_universal_drops_unwarranted () =
  let h = Hierarchy.of_pairs [ ("aaaa", "zzzzzz"); ("zzzzzz", "aaab") ] in
  let e = Sea.enhance_exn ~lift:Sea.Universal ~metric:Levenshtein.metric ~eps:1.0 h in
  checkb "similar" true (Sea.similar e "aaaa" "aaab");
  checkb "no upward ordering" false (Hierarchy.leq e.Sea.hierarchy "aaaa" "zzzzzz");
  checkb "no downward ordering" false (Hierarchy.leq e.Sea.hierarchy "zzzzzz" "aaab")

let test_sea_negative_eps_rejected () =
  Alcotest.check_raises "negative eps"
    (Invalid_argument "Sea.enhance: negative threshold") (fun () ->
      ignore (Sea.enhance ~metric:Levenshtein.metric ~eps:(-1.0) example11_hierarchy))

let test_sea_mu () =
  let e = Sea.enhance_exn ~metric:Levenshtein.metric ~eps:2.0 example11_hierarchy in
  let images = Sea.mu_of e (Node.singleton "relation") in
  checki "relation has one image" 1 (List.length images);
  Alcotest.(check (list string)) "image is the merged cluster"
    [ "relation"; "relational" ]
    (Node.strings (List.hd images));
  checki "unknown node has no image" 0
    (List.length (Sea.mu_of e (Node.singleton "nonexistent")))

let test_sea_overlapping_clusters () =
  (* d(a,b) <= eps, d(b,c) <= eps, d(a,c) > eps: the middle term belongs
     to two clusters -- the paper's discussion after Definition 8. *)
  let h =
    Hierarchy.empty |> Hierarchy.add_term "fooo" |> Hierarchy.add_term "foox"
    |> Hierarchy.add_term "foxx"
  in
  let e = Sea.enhance_exn ~metric:Levenshtein.metric ~eps:1.0 h in
  checkb "a ~ b" true (Sea.similar e "fooo" "foox");
  checkb "b ~ c" true (Sea.similar e "foox" "foxx");
  checkb "a !~ c" false (Sea.similar e "fooo" "foxx");
  checki "middle term in two clusters" 2
    (List.length (Sea.mu_of e (Node.singleton "foox")))

(* Random hierarchies over a deliberately collision-prone term pool, so
   that enhancements genuinely merge nodes. Edges go from lower to higher
   pool index: always acyclic. *)
let term_pool =
  [| "aa"; "ab"; "ba"; "abc"; "abd"; "xyz"; "xyw"; "pqrs"; "pqrt"; "mn" |]

let random_hierarchy_gen =
  QCheck2.Gen.(
    let* n = int_range 2 (Array.length term_pool) in
    let* edges =
      list_size (int_range 0 12)
        (let* i = int_range 0 (n - 1) in
         let* j = int_range 0 (n - 1) in
         return (min i j, max i j))
    in
    let pairs =
      List.filter_map
        (fun (i, j) -> if i = j then None else Some (term_pool.(i), term_pool.(j)))
        edges
    in
    let h =
      List.fold_left
        (fun h i -> Hierarchy.add_term term_pool.(i) h)
        (Hierarchy.of_pairs pairs)
        (List.init n Fun.id)
    in
    return h)

let prop_sea_postconditions =
  QCheck2.Test.make ~name:"SEA satisfies definition 8 when it succeeds" ~count:100
    QCheck2.Gen.(pair random_hierarchy_gen (oneofl [ 0.0; 1.0; 2.0 ]))
    (fun (h, eps) ->
      match Sea.enhance ~metric:Levenshtein.metric ~eps h with
      | None -> true (* similarity inconsistent: allowed *)
      | Some e -> (
          match Sea.check ~original:h e with Ok () -> true | Error _ -> false))

let prop_sea_universal_always_succeeds =
  QCheck2.Test.make ~name:"universal lift always yields a DAG" ~count:100
    QCheck2.Gen.(pair random_hierarchy_gen (oneofl [ 0.0; 1.0; 2.0; 3.0 ]))
    (fun (h, eps) ->
      match Sea.enhance ~lift:Sea.Universal ~metric:Levenshtein.metric ~eps h with
      | Some e -> Hierarchy.is_consistent e.Sea.hierarchy
      | None -> false)

let prop_sea_similarity_iff_coresidence =
  (* Conditions 2+3 together: two original terms are co-resident in some
     cluster iff their nodes are within eps. *)
  QCheck2.Test.make ~name:"similar iff within eps (conditions 2 and 3)" ~count:100
    QCheck2.Gen.(pair random_hierarchy_gen (oneofl [ 1.0; 2.0 ]))
    (fun (h, eps) ->
      match Sea.enhance ~metric:Levenshtein.metric ~eps h with
      | None -> true
      | Some e ->
          List.for_all
            (fun a ->
              List.for_all
                (fun b ->
                  let close =
                    Node_dist.within Levenshtein.metric ~eps a b
                  in
                  let coresident =
                    Sea.similar e (Node.representative a) (Node.representative b)
                  in
                  close = coresident)
                (Hierarchy.nodes h))
            (Hierarchy.nodes h))

let prop_sea_monotone_similarity =
  QCheck2.Test.make ~name:"similarity pairs grow with eps" ~count:50
    random_hierarchy_gen (fun h ->
      match
        ( Sea.enhance ~metric:Levenshtein.metric ~eps:1.0 h,
          Sea.enhance ~metric:Levenshtein.metric ~eps:2.0 h )
      with
      | Some e1, Some e2 ->
          let terms = Hierarchy.terms h in
          List.for_all
            (fun a ->
              List.for_all
                (fun b -> (not (Sea.similar e1 a b)) || Sea.similar e2 a b)
                terms)
            terms
      | _ -> true)

(* ------------------------------------------------------------------ *)
(* Properties driven by the differential harness's generator            *)
(* ------------------------------------------------------------------ *)

(* The {!Toss_check.Rng} stream is version-stable, so unlike the QCheck
   properties above these run the exact same inputs everywhere. Every
   exported measure is held to Definition 7 (identity, symmetry,
   non-negativity), and Levenshtein, the paper's strong measure,
   additionally to the triangle inequality. *)

module Crng = Toss_check.Rng
module Cgen = Toss_check.Gen

let all_metrics =
  [
    Levenshtein.metric;
    Name_rules.metric;
    Metric.v ~name:"text-rules" ~within:Text_rules.within Text_rules.distance;
  ]

let random_word rng =
  let pool = [ "model"; "models"; "vldb"; "vld"; "data base"; "database";
               "J. Ullman"; "Ullman, J."; "" ] in
  if Crng.chance rng 50 then Crng.pick rng pool
  else String.init (Crng.int rng 9) (fun _ -> Char.chr (97 + Crng.int rng 26))

let test_metric_axioms () =
  let rng = Crng.create 42 in
  for _ = 1 to 200 do
    let x = random_word rng and y = random_word rng in
    List.iter
      (fun m ->
        let open Metric in
        checkb (m.name ^ " identity") true (dist m x x = 0.);
        checkb (m.name ^ " symmetry") true (dist m x y = dist m y x);
        checkb (m.name ^ " non-negative") true (dist m x y >= 0.);
        (* The banded/fast-path threshold tests must agree with dist. *)
        List.iter
          (fun eps ->
            checkb (m.name ^ " within agrees with dist") true
              (within m ~eps x y = (dist m x y <= eps)))
          [ 0.; 1.; 2. ])
      all_metrics
  done

let test_metric_triangle_when_strong () =
  let rng = Crng.create 7 in
  for _ = 1 to 200 do
    let x = random_word rng and y = random_word rng and z = random_word rng in
    let d = Metric.dist Levenshtein.metric in
    checkb "levenshtein triangle inequality" true (d x z <= d x y +. d y z +. 1e-9)
  done

(* SEA invariants over the harness generator's ontologies: every cluster
   is pairwise-ε-similar, μ maps each term to exactly the clusters that
   contain it, and the library's own [Sea.check] agrees. *)
let test_sea_invariants_on_generated_ontologies () =
  let rng = Crng.create 2024 in
  let checked = ref 0 in
  while !checked < 40 do
    let case = Cgen.case (Crng.sub_seed rng) in
    let h = Hierarchy.of_pairs case.Cgen.isa_edges in
    let eps = if case.Cgen.eps = 0. then 1.0 else case.Cgen.eps in
    match Sea.enhance ~metric:Levenshtein.metric ~eps h with
    | None -> () (* similarity inconsistent: nothing to check *)
    | Some e ->
        incr checked;
        (match Sea.check ~original:h e with
        | Ok () -> ()
        | Error msgs ->
            Alcotest.failf "Sea.check failed: %s" (String.concat "; " msgs));
        List.iter
          (fun cluster ->
            let members = Node.strings cluster in
            List.iter
              (fun a ->
                List.iter
                  (fun b ->
                    checkb "cluster members pairwise within eps" true
                      (Metric.within Levenshtein.metric ~eps a b))
                  members)
              members)
          (Sea.clusters e);
        List.iter
          (fun (n, images) ->
            checkb "mu images each contain the original node" true
              (List.for_all (fun img -> Node.subset n img) images))
          e.Sea.mu
  done

let () =
  Alcotest.run "toss_similarity"
    [
      ( "levenshtein",
        [
          Alcotest.test_case "known distances" `Quick test_levenshtein_known;
          Alcotest.test_case "banded threshold variant" `Quick test_levenshtein_within;
          QCheck_alcotest.to_alcotest prop_lev_symmetric;
          QCheck_alcotest.to_alcotest prop_lev_identity;
          QCheck_alcotest.to_alcotest prop_lev_triangle;
          QCheck_alcotest.to_alcotest prop_lev_within_agrees;
        ] );
      ("other measures", [ Alcotest.test_case "tokenizer" `Quick test_tokenize ]);
      ( "generator-driven properties",
        [
          Alcotest.test_case "Definition 7 axioms, every measure" `Quick
            test_metric_axioms;
          Alcotest.test_case "triangle inequality when strong" `Quick
            test_metric_triangle_when_strong;
          Alcotest.test_case "SEA invariants on generated ontologies" `Quick
            test_sea_invariants_on_generated_ontologies;
        ] );
      ( "rule-based",
        [
          Alcotest.test_case "paper's example distances" `Quick
            test_name_rules_paper_values;
          Alcotest.test_case "name variants" `Quick test_name_rules_variants;
          Alcotest.test_case "thresholds" `Quick test_name_rules_compatible;
          Alcotest.test_case "text abbreviations" `Quick test_text_rules;
        ] );
      ( "cliques",
        [
          Alcotest.test_case "triangle plus pendant" `Quick
            test_cliques_triangle_plus_pendant;
          Alcotest.test_case "no edges" `Quick test_cliques_no_edges;
          Alcotest.test_case "complete graph" `Quick test_cliques_complete;
          Alcotest.test_case "empty graph" `Quick test_cliques_empty_graph;
          QCheck_alcotest.to_alcotest prop_cliques_are_cliques_and_maximal;
        ] );
      ( "sea",
        [
          Alcotest.test_case "node distance" `Quick test_node_dist;
          Alcotest.test_case "paper example 11" `Quick test_sea_example11;
          Alcotest.test_case "definition 8 conditions" `Quick test_sea_conditions_hold;
          Alcotest.test_case "eps 0 keeps structure" `Quick
            test_sea_eps_zero_is_identity_like;
          Alcotest.test_case "similarity inconsistency" `Quick test_sea_inconsistency;
          Alcotest.test_case "universal lift drops unwarranted orderings" `Quick
            test_sea_universal_drops_unwarranted;
          Alcotest.test_case "negative eps rejected" `Quick test_sea_negative_eps_rejected;
          Alcotest.test_case "mu mapping" `Quick test_sea_mu;
          Alcotest.test_case "overlapping clusters" `Quick test_sea_overlapping_clusters;
          QCheck_alcotest.to_alcotest prop_sea_postconditions;
          QCheck_alcotest.to_alcotest prop_sea_universal_always_succeeds;
          QCheck_alcotest.to_alcotest prop_sea_similarity_iff_coresidence;
          QCheck_alcotest.to_alcotest prop_sea_monotone_similarity;
        ] );
    ]
