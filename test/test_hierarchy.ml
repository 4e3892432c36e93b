(* Tests for the digraph algorithms, term-cluster nodes and Hasse-diagram
   hierarchies that underpin ontologies, fusion and the SEA algorithm. *)

module Digraph = Toss_hierarchy.Digraph
module Node = Toss_hierarchy.Node
module Hierarchy = Toss_hierarchy.Hierarchy

module SG = Digraph.Make (struct
  type t = string

  let compare = String.compare
end)

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let check_sl = Alcotest.(check (list string))

(* ------------------------------------------------------------------ *)
(* Digraph basics                                                       *)
(* ------------------------------------------------------------------ *)

let of_edges = List.fold_left (fun g (u, v) -> SG.add_edge u v g) SG.empty
let diamond = of_edges [ ("a", "b"); ("a", "c"); ("b", "d"); ("c", "d") ]

let test_add_and_membership () =
  checkb "empty has no vertex" false (SG.mem_vertex "x" SG.empty);
  let g = SG.add_edge "x" "y" SG.empty in
  checkb "edge endpoints become vertices" true (SG.mem_vertex "x" g && SG.mem_vertex "y" g);
  checkb "edge present" true (SG.mem_edge "x" "y" g);
  checkb "edge is directed" false (SG.mem_edge "y" "x" g);
  checki "n_vertices" 2 (SG.n_vertices g);
  checki "n_edges" 1 (SG.n_edges g)

let test_remove () =
  let g = SG.remove_edge "a" "b" diamond in
  checkb "removed edge gone" false (SG.mem_edge "a" "b" g);
  checkb "other edges stay" true (SG.mem_edge "a" "c" g);
  checkb "endpoints stay" true (SG.mem_vertex "a" g && SG.mem_vertex "b" g)

let test_reachability () =
  checkb "a reaches d" true (SG.has_path "a" "d" diamond);
  checkb "d does not reach a" false (SG.has_path "d" "a" diamond);
  checkb "reflexive" true (SG.has_path "b" "b" diamond);
  checkb "unknown reaches nothing" false (SG.has_path "zz" "a" diamond)

let test_topological_sort () =
  match SG.topological_sort diamond with
  | None -> Alcotest.fail "diamond is a DAG"
  | Some order ->
      let pos v =
        let rec go i = function
          | [] -> Alcotest.fail (v ^ " missing from order")
          | x :: rest -> if x = v then i else go (i + 1) rest
        in
        go 0 order
      in
      checkb "a before b" true (pos "a" < pos "b");
      checkb "b before d" true (pos "b" < pos "d");
      checkb "c before d" true (pos "c" < pos "d")

let test_cycle_detection () =
  let cyclic = SG.add_edge "d" "a" diamond in
  checkb "diamond acyclic" true (SG.is_acyclic diamond);
  checkb "with back edge cyclic" false (SG.is_acyclic cyclic);
  checkb "topological sort refuses cycles" true (SG.topological_sort cyclic = None);
  checkb "self-loop is a cycle" false (SG.is_acyclic (SG.add_edge "x" "x" SG.empty))

let test_scc () =
  let g =
    of_edges
      [ ("a", "b"); ("b", "a"); ("b", "c"); ("c", "d"); ("d", "c"); ("d", "e") ]
  in
  (* The condensation's vertices are Tarjan's components. *)
  let comps = List.map (List.sort String.compare) (fst (SG.condensation g)) in
  let comps = List.sort compare comps in
  check
    (Alcotest.list (Alcotest.list Alcotest.string))
    "components" [ [ "a"; "b" ]; [ "c"; "d" ]; [ "e" ] ] comps

let test_condensation () =
  let g = of_edges [ ("a", "b"); ("b", "a"); ("b", "c") ] in
  let comps, edges = SG.condensation g in
  checki "two components" 2 (List.length comps);
  checki "one inter-edge" 1 (List.length edges)

let test_transitive_reduction () =
  let g = SG.add_edge "a" "d" diamond in
  let reduced = SG.transitive_reduction g in
  checkb "redundant a->d removed" false (SG.mem_edge "a" "d" reduced);
  checkb "hasse edges kept" true (SG.mem_edge "a" "b" reduced && SG.mem_edge "b" "d" reduced);
  (* Reduction must preserve reachability. *)
  List.iter
    (fun u ->
      List.iter
        (fun v ->
          checkb
            (Printf.sprintf "reachability %s->%s preserved" u v)
            (SG.has_path u v g) (SG.has_path u v reduced))
        (SG.vertices g))
    (SG.vertices g)

let test_reduction_rejects_cycles () =
  let cyclic = of_edges [ ("a", "b"); ("b", "a") ] in
  Alcotest.check_raises "reduction raises on cycle"
    (Invalid_argument "Digraph.transitive_reduction: graph has a cycle") (fun () ->
      ignore (SG.transitive_reduction cyclic))

let test_map_vertices () =
  let g = SG.map_vertices String.uppercase_ascii diamond in
  checkb "renamed edge" true (SG.mem_edge "A" "B" g);
  checki "same vertex count" 4 (SG.n_vertices g);
  (*

     Identifying vertices merges their adjacency. *)
  let merged = SG.map_vertices (fun _ -> "z") diamond in
  checki "all merged" 1 (SG.n_vertices merged)

(* Random-graph properties. *)
let random_dag_gen =
  QCheck2.Gen.(
    let* n = int_range 1 12 in
    let* edges =
      list_size (int_range 0 30)
        (let* i = int_range 0 (n - 1) in
         let* j = int_range 0 (n - 1) in
         return (min i j, max i j))
    in
    (* Edges go from smaller to larger index: always a DAG (self-loops
       filtered). *)
    return
      (List.filter (fun (i, j) -> i <> j) edges
      |> List.map (fun (i, j) -> (Printf.sprintf "v%d" i, Printf.sprintf "v%d" j))))

let prop_reduction_preserves_reachability =
  QCheck2.Test.make ~name:"transitive reduction preserves reachability" ~count:100
    random_dag_gen (fun edges ->
      let g = of_edges edges in
      let r = SG.transitive_reduction g in
      List.for_all
        (fun u ->
          List.for_all (fun v -> SG.has_path u v g = SG.has_path u v r) (SG.vertices g))
        (SG.vertices g))

let prop_topo_respects_edges =
  QCheck2.Test.make ~name:"topological sort respects edges" ~count:100 random_dag_gen
    (fun edges ->
      let g = of_edges edges in
      match SG.topological_sort g with
      | None -> false
      | Some order ->
          let index = Hashtbl.create 16 in
          List.iteri (fun i v -> Hashtbl.replace index v i) order;
          List.for_all (fun (u, v) -> Hashtbl.find index u < Hashtbl.find index v)
            (SG.edges g))

(* ------------------------------------------------------------------ *)
(* Node clusters                                                        *)
(* ------------------------------------------------------------------ *)

let test_node_canonical () =
  let n = Node.of_list [ "b"; "a"; "b" ] in
  check_sl "sorted, deduped" [ "a"; "b" ] (Node.strings n);
  checkb "equal regardless of order" true
    (Node.equal n (Node.of_list [ "a"; "b"; "a" ]));
  checki "cardinal" 2 (Node.cardinal n);
  check Alcotest.string "representative" "a" (Node.representative n)

let test_node_empty_rejected () =
  Alcotest.check_raises "empty cluster" (Invalid_argument "Node.of_list: empty cluster")
    (fun () -> ignore (Node.of_list []))

let test_node_ops () =
  let a = Node.of_list [ "x"; "y" ] in
  let b = Node.of_list [ "y"; "z" ] in
  check_sl "union" [ "x"; "y"; "z" ] (Node.strings (Node.union a b));
  checkb "mem" true (Node.mem "x" a);
  checkb "not mem" false (Node.mem "z" a);
  checkb "subset" true (Node.subset (Node.singleton "y") a);
  checkb "not subset" false (Node.subset a b)

(* ------------------------------------------------------------------ *)
(* Hierarchies                                                          *)
(* ------------------------------------------------------------------ *)

(* The paper's Example 7: author and title are part of article. *)
let example7 = Hierarchy.of_pairs [ ("author", "article"); ("title", "article") ]

let test_hierarchy_example7 () =
  checki "three nodes" 3 (Hierarchy.n_nodes example7);
  checki "two edges" 2 (Hierarchy.n_edges example7);
  checkb "author <= article" true (Hierarchy.leq example7 "author" "article");
  checkb "article not <= author" false (Hierarchy.leq example7 "article" "author");
  checkb "reflexive" true (Hierarchy.leq example7 "author" "author");
  checkb "unknown term" false (Hierarchy.leq example7 "zzz" "article")

let test_hierarchy_below_above () =
  let h = Hierarchy.of_pairs [ ("a", "b"); ("b", "c"); ("x", "c") ] in
  check_sl "below c" [ "a"; "b"; "c"; "x" ] (Hierarchy.below "c" h);
  check_sl "above a" [ "a"; "b"; "c" ]
    (List.filter (fun t -> Hierarchy.leq h "a" t) (Hierarchy.terms h));
  check_sl "below a" [ "a" ] (Hierarchy.below "a" h)

let test_hierarchy_of_pairs_reduces () =
  (* A transitive edge must be dropped: Hasse diagrams are minimal. *)
  let h = Hierarchy.of_pairs [ ("a", "b"); ("b", "c"); ("a", "c") ] in
  checki "only the two covering edges" 2 (Hierarchy.n_edges h);
  checkb "ordering kept" true (Hierarchy.leq h "a" "c")

let test_hierarchy_cycle_rejected () =
  Alcotest.check_raises "cyclic ordering"
    (Invalid_argument "Hierarchy.of_pairs: cyclic ordering") (fun () ->
      ignore (Hierarchy.of_pairs [ ("a", "b"); ("b", "a") ]))

let test_hierarchy_cluster_nodes () =
  (* A node holding several strings: lookups work through any of them. *)
  let h =
    Hierarchy.of_pairs [ ("SIGMOD", "conference") ]
    |> Hierarchy.merge_terms "booktitle" "conference"
  in
  checkb "leq via cluster member" true (Hierarchy.leq h "SIGMOD" "conference");
  checkb "leq via other member" true (Hierarchy.leq h "SIGMOD" "booktitle");
  check_sl "below conference" [ "SIGMOD"; "booktitle"; "conference" ]
    (Hierarchy.below "conference" h)

let test_hierarchy_terms_and_mem () =
  checkb "mem" true (Hierarchy.mem_term "author" example7);
  checkb "not mem" false (Hierarchy.mem_term "zzz" example7);
  check_sl "terms" [ "article"; "author"; "title" ] (Hierarchy.terms example7)

let test_hierarchy_equal () =
  let h1 = Hierarchy.of_pairs [ ("a", "b") ] in
  let h2 = Hierarchy.of_pairs [ ("a", "b") ] in
  let h3 = Hierarchy.of_pairs [ ("a", "c") ] in
  checkb "equal" true (Hierarchy.equal h1 h2);
  checkb "not equal" false (Hierarchy.equal h1 h3)

(* ------------------------------------------------------------------ *)
(* Editing operations (the paper's DBA refinement)                      *)
(* ------------------------------------------------------------------ *)

let test_merge_terms () =
  let h = Hierarchy.of_pairs [ ("a", "c"); ("b", "d") ] in
  let h = Hierarchy.merge_terms "a" "b" h in
  (match Hierarchy.nodes_of "a" h with
  | [ n ] -> check_sl "merged cluster" [ "a"; "b" ] (Node.strings n)
  | _ -> Alcotest.fail "expected one node for a");
  checkb "inherits both edge sets" true
    (Hierarchy.leq h "a" "d" && Hierarchy.leq h "b" "c");
  checkb "still consistent" true (Hierarchy.is_consistent h);
  (* Merging within one node is a no-op. *)
  checkb "idempotent" true (Hierarchy.equal h (Hierarchy.merge_terms "b" "a" h))

let test_merge_ordered_terms () =
  (* Merging strictly ordered terms collapses the chain into a cycle. *)
  let h = Hierarchy.of_pairs [ ("a", "m"); ("m", "b") ] in
  let merged = Hierarchy.merge_terms "a" "b" h in
  checkb "cycle detected" false (Hierarchy.is_consistent merged)

let test_to_dot () =
  let h = Hierarchy.of_pairs [ ("a", "b") ] in
  let dot = Hierarchy.to_dot h in
  let has needle =
    let nh = String.length dot and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub dot i nn = needle || go (i + 1)) in
    go 0
  in
  checkb "digraph" true (has "digraph");
  checkb "labels" true (has "label=\"a\"" && has "label=\"b\"");
  checkb "edge" true (has "->")

let () =
  Alcotest.run "toss_hierarchy"
    [
      ( "digraph",
        [
          Alcotest.test_case "add and membership" `Quick test_add_and_membership;
          Alcotest.test_case "remove edge and vertex" `Quick test_remove;
          Alcotest.test_case "reachability" `Quick test_reachability;
          Alcotest.test_case "topological sort" `Quick test_topological_sort;
          Alcotest.test_case "cycle detection" `Quick test_cycle_detection;
          Alcotest.test_case "strongly connected components" `Quick test_scc;
          Alcotest.test_case "condensation" `Quick test_condensation;
          Alcotest.test_case "transitive reduction" `Quick test_transitive_reduction;
          Alcotest.test_case "reduction rejects cycles" `Quick test_reduction_rejects_cycles;
          Alcotest.test_case "map vertices" `Quick test_map_vertices;
          QCheck_alcotest.to_alcotest prop_reduction_preserves_reachability;
          QCheck_alcotest.to_alcotest prop_topo_respects_edges;
        ] );
      ( "node",
        [
          Alcotest.test_case "canonical form" `Quick test_node_canonical;
          Alcotest.test_case "empty rejected" `Quick test_node_empty_rejected;
          Alcotest.test_case "set operations" `Quick test_node_ops;
        ] );
      ( "hierarchy editing",
        [
          Alcotest.test_case "merge terms" `Quick test_merge_terms;
          Alcotest.test_case "merge can create inconsistency" `Quick
            test_merge_ordered_terms;
          Alcotest.test_case "dot export" `Quick test_to_dot;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "example 7 (part-of)" `Quick test_hierarchy_example7;
          Alcotest.test_case "below and above" `Quick test_hierarchy_below_above;
          Alcotest.test_case "of_pairs reduces to Hasse form" `Quick
            test_hierarchy_of_pairs_reduces;
          Alcotest.test_case "cycles rejected" `Quick test_hierarchy_cycle_rejected;
          Alcotest.test_case "cluster nodes" `Quick test_hierarchy_cluster_nodes;
          Alcotest.test_case "terms and membership" `Quick test_hierarchy_terms_and_mem;
          Alcotest.test_case "structural equality" `Quick test_hierarchy_equal;
        ] );
    ]
