(* Tests for the TAX baseline: pattern trees, selection conditions,
   embeddings, witness trees, and the algebra (paper Section 2,
   Examples 2-6). *)

module Tree = Toss_xml.Tree
module Doc = Tree.Doc
module Printer = Toss_xml.Printer
module Pattern = Toss_tax.Pattern
module Condition = Toss_tax.Condition
module Embedding = Toss_tax.Embedding
module Witness = Toss_tax.Witness
module Algebra = Toss_tax.Algebra

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* A small DBLP-like instance in the spirit of the paper's Figure 1. *)
let dblp =
  Toss_xml.Parser.parse_exn
    {|<dblp>
        <inproceedings key="c1">
          <author>Paolo Ciancarini</author>
          <title>A Case Study in Coordination</title>
          <booktitle>SIGMOD Conference</booktitle>
          <year>1999</year>
        </inproceedings>
        <inproceedings key="f1">
          <author>Elena Ferrari</author>
          <author>Ernesto Damiani</author>
          <title>Securing XML Documents</title>
          <booktitle>EDBT</booktitle>
          <year>2000</year>
        </inproceedings>
        <inproceedings key="a1">
          <author>Sanjay Agrawal</author>
          <title>Materialized View and Index Selection Tool for Microsoft SQL Server 2000</title>
          <booktitle>SIGMOD Conference</booktitle>
          <year>2000</year>
        </inproceedings>
      </dblp>|}

let dblp_doc = Doc.of_tree dblp

let tag_of = function Tree.Element { tag; _ } -> Some tag | Tree.Text _ -> None

(* Figure 3-style pattern: #1 inproceedings with a #2 year child equal to
   1999. *)
let p1 =
  Pattern.v
    (Pattern.node 1 [ Pattern.pc (Pattern.leaf 2) ])
    (Condition.conj
       [ Condition.tag_eq 1 "inproceedings"; Condition.tag_eq 2 "year";
         Condition.Cmp (Condition.Content 2, Condition.Eq, Condition.Str "1999") ])

(* ------------------------------------------------------------------ *)
(* Pattern trees                                                        *)
(* ------------------------------------------------------------------ *)

let test_pattern_labels () =
  Alcotest.(check (list int)) "preorder labels" [ 1; 2 ] (Pattern.labels p1);
  checkb "2 is a pc child of 1" true
    (p1.Pattern.root.Pattern.children = [ (Pattern.Pc, Pattern.leaf 2) ])

let test_pattern_distinct_labels_enforced () =
  Alcotest.check_raises "duplicate labels"
    (Invalid_argument "Pattern.v: node labels must be distinct") (fun () ->
      ignore
        (Pattern.v (Pattern.node 1 [ Pattern.pc (Pattern.leaf 1) ]) Condition.True))

(* ------------------------------------------------------------------ *)
(* Conditions                                                           *)
(* ------------------------------------------------------------------ *)

let env_of_nodes pairs label =
  Option.map (fun n -> (dblp_doc, n)) (List.assoc_opt label pairs)

let first_inproc = List.hd (Doc.by_tag dblp_doc "inproceedings")
let first_year = List.hd (Doc.by_tag dblp_doc "year")

let test_condition_cmp () =
  let env = env_of_nodes [ (1, first_inproc); (2, first_year) ] in
  checkb "tag equality" true (Condition.eval_tax env (Condition.tag_eq 1 "inproceedings"));
  checkb "tag inequality" false (Condition.eval_tax env (Condition.tag_eq 1 "article"));
  checkb "content equality" true (Condition.eval_tax env (Condition.Cmp (Condition.Content 2, Condition.Eq, Condition.Str "1999")));
  checkb "numeric comparison" true
    (Condition.eval_tax env
       (Condition.Cmp (Condition.Content 2, Condition.Le, Condition.Str "2000")));
  checkb "numeric not lexicographic" true
    (Condition.compare_values Condition.Lt "9" "10");
  checkb "lexicographic fallback" true (Condition.compare_values Condition.Lt "abc" "abd")

let test_condition_boolean () =
  let env = env_of_nodes [ (1, first_inproc) ] in
  let t = Condition.tag_eq 1 "inproceedings" in
  let f = Condition.tag_eq 1 "nope" in
  checkb "and" true (Condition.eval_tax env (Condition.And (t, t)));
  checkb "and short" false (Condition.eval_tax env (Condition.And (t, f)));
  checkb "or" true (Condition.eval_tax env (Condition.Or (f, t)));
  checkb "not" true (Condition.eval_tax env (Condition.Not f));
  checkb "true" true (Condition.eval_tax env Condition.True);
  checkb "unbound label fails atoms" false
    (Condition.eval_tax env (Condition.tag_eq 9 "x"))

let test_condition_tax_degradations () =
  let env = env_of_nodes [ (2, first_year) ] in
  (* ~ degrades to exact equality. *)
  checkb "sim exact hit" true (Condition.eval_tax env (Condition.content_sim 2 "1999"));
  checkb "sim near miss" false (Condition.eval_tax env (Condition.content_sim 2 "1998"));
  (* isa degrades to substring containment. *)
  checkb "isa contains" true
    (Condition.eval_tax env (Condition.Isa (Condition.Content 2, Condition.Str "99")));
  checkb "isa not contained" false
    (Condition.eval_tax env (Condition.content_isa 2 "conference"))

let test_condition_helpers () =
  let c =
    Condition.conj
      [ Condition.tag_eq 1 "a"; Condition.content_sim 2 "x"; Condition.content_isa 3 "y" ]
  in
  Alcotest.(check (list int)) "labels used" [ 1; 2; 3 ] (Condition.labels_used c);
  checki "atoms" 3 (List.length (Condition.atoms c));
  checki "local atoms of 2" 1 (List.length (Condition.local_atoms c 2));
  (* An atom under a disjunction is not a usable local prefilter. *)
  let c2 = Condition.Or (Condition.tag_eq 1 "a", Condition.tag_eq 1 "b") in
  checki "disjunction not local" 0 (List.length (Condition.local_atoms c2 1));
  checkb "disj of none is false" false (Condition.eval_tax (fun _ -> None) (Condition.disj []))

(* ------------------------------------------------------------------ *)
(* Embeddings                                                           *)
(* ------------------------------------------------------------------ *)

let test_embeddings_basic () =
  let bindings = Embedding.enumerate ~eval:Condition.eval_tax dblp_doc p1 in
  checki "one 1999 paper" 1 (List.length bindings);
  let binding = List.hd bindings in
  checks "root image key" "c1"
    (List.assoc "key" (Doc.attrs dblp_doc (List.assoc 1 binding)))

let test_embeddings_multiple () =
  (* Pattern matching any inproceedings-author pair. *)
  let p =
    Pattern.v
      (Pattern.node 1 [ Pattern.pc (Pattern.leaf 2) ])
      (Condition.conj [ Condition.tag_eq 1 "inproceedings"; Condition.tag_eq 2 "author" ])
  in
  let bindings = Embedding.enumerate ~eval:Condition.eval_tax dblp_doc p in
  checki "four author embeddings" 4 (List.length bindings)

let test_embeddings_ad_edge () =
  (* dblp //author via an ancestor-descendant edge from the root. *)
  let p =
    Pattern.v
      (Pattern.node 1 [ Pattern.ad (Pattern.leaf 2) ])
      (Condition.conj [ Condition.tag_eq 1 "dblp"; Condition.tag_eq 2 "author" ])
  in
  checki "ad reaches grandchildren" 4
    (List.length (Embedding.enumerate ~eval:Condition.eval_tax dblp_doc p));
  (* With a pc edge instead, authors are not direct children of dblp. *)
  let p_pc =
    Pattern.v
      (Pattern.node 1 [ Pattern.pc (Pattern.leaf 2) ])
      (Condition.conj [ Condition.tag_eq 1 "dblp"; Condition.tag_eq 2 "author" ])
  in
  checki "pc does not" 0
    (List.length (Embedding.enumerate ~eval:Condition.eval_tax dblp_doc p_pc))

let test_embeddings_cross_label_condition () =
  (* Two siblings with identical content: none here, so no embedding. *)
  let p =
    Pattern.v
      (Pattern.node 1 [ Pattern.pc (Pattern.leaf 2); Pattern.pc (Pattern.leaf 3) ])
      (Condition.conj
         [
           Condition.tag_eq 2 "author";
           Condition.tag_eq 3 "title";
           Condition.Cmp (Condition.Content 2, Condition.Eq, Condition.Content 3);
         ])
  in
  checki "no equal author/title" 0
    (List.length (Embedding.enumerate ~eval:Condition.eval_tax dblp_doc p))

let test_embeddings_candidates_narrow () =
  let p =
    Pattern.v
      (Pattern.node 1 [ Pattern.pc (Pattern.leaf 2) ])
      (Condition.conj [ Condition.tag_eq 1 "inproceedings"; Condition.tag_eq 2 "author" ])
  in
  let only_first = List.hd (Doc.by_tag dblp_doc "author") in
  let candidates label = if label = 2 then Some [ only_first ] else None in
  checki "candidate restriction honoured" 1
    (List.length (Embedding.enumerate ~candidates ~eval:Condition.eval_tax dblp_doc p))

(* ------------------------------------------------------------------ *)
(* Witness trees                                                        *)
(* ------------------------------------------------------------------ *)

let test_witness_shape () =
  let bindings = Embedding.enumerate ~eval:Condition.eval_tax dblp_doc p1 in
  let w = Witness.of_binding dblp_doc (List.hd bindings) ~sl:[] in
  (* Only the matched inproceedings and year survive. *)
  checkb "witness shape" true
    (Tree.equal w
       (Tree.element ~attrs:[ ("key", "c1") ] "inproceedings" [ Tree.leaf "year" "1999" ]))

let test_witness_sl_expands () =
  let bindings = Embedding.enumerate ~eval:Condition.eval_tax dblp_doc p1 in
  let w = Witness.of_binding dblp_doc (List.hd bindings) ~sl:[ 1 ] in
  (* SL = [1]: the whole inproceedings subtree is included (Example 3). *)
  checki "full subtree" 5
    (Tree.fold (fun n t -> match t with Tree.Element _ -> n + 1 | Tree.Text _ -> n) 0 w);
  checkb "title included" true
    (Tree.fold
       (fun acc t -> acc || tag_of t = Some "title")
       false w)

let test_witness_order_preserved () =
  (* Match title and author of the same paper: in the witness they must
     appear in document order (author before title). *)
  let p =
    Pattern.v
      (Pattern.node 1 [ Pattern.pc (Pattern.leaf 2); Pattern.pc (Pattern.leaf 3) ])
      (Condition.conj
         [ Condition.tag_eq 1 "inproceedings"; Condition.tag_eq 2 "title";
           Condition.tag_eq 3 "author" ])
  in
  let bindings = Embedding.enumerate ~eval:Condition.eval_tax dblp_doc p in
  let w = Witness.of_binding dblp_doc (List.hd bindings) ~sl:[] in
  match w with
  | Tree.Element { children = [ c1; c2 ]; _ } ->
      checkb "author first" true (tag_of c1 = Some "author");
      checkb "title second" true (tag_of c2 = Some "title")
  | _ -> Alcotest.fail "expected two children"

let test_witness_forest_of_disjoint_nodes () =
  let authors = Doc.by_tag dblp_doc "author" in
  let forest = Witness.forest_of dblp_doc authors in
  checki "one tree per author" 4 (List.length forest);
  checkb "authors materialized with content" true
    (Tree.equal (List.hd forest) (Tree.leaf "author" "Paolo Ciancarini"))

(* ------------------------------------------------------------------ *)
(* Algebra                                                              *)
(* ------------------------------------------------------------------ *)

let test_select () =
  let results = Algebra.select ~pattern:p1 ~sl:[ 1 ] [ dblp ] in
  checki "one witness" 1 (List.length results);
  checkb "full paper returned" true
    (String.length (Printer.to_string (List.hd results)) > 50)

let test_select_duplicate_witnesses_collapsed () =
  (* A pattern with one node matching inproceedings twice through
     different embeddings of a second node would duplicate witnesses;
     selection must deduplicate equal trees. *)
  let p =
    Pattern.v
      (Pattern.node 1 [ Pattern.ad (Pattern.leaf 2) ])
      (Condition.conj [ Condition.tag_eq 1 "inproceedings"; Condition.tag_eq 2 "author" ])
  in
  let with_sl = Algebra.select ~pattern:p ~sl:[ 1 ] [ dblp ] in
  (* f1 has two authors but its full subtree is returned once. *)
  checki "three distinct papers" 3 (List.length with_sl)

let test_project_example5 () =
  (* Example 5: authors of papers published in 1999. *)
  let p =
    Pattern.v
      (Pattern.node 1 [ Pattern.pc (Pattern.leaf 2); Pattern.pc (Pattern.leaf 3) ])
      (Condition.conj
         [
           Condition.tag_eq 1 "inproceedings";
           Condition.tag_eq 2 "year";
           Condition.Cmp (Condition.Content 2, Condition.Eq, Condition.Str "1999");
           Condition.tag_eq 3 "author";
         ])
  in
  let results = Algebra.project ~pattern:p ~pl:[ 3 ] [ dblp ] in
  checki "one author" 1 (List.length results);
  checkb "author node only" true
    (Tree.equal (List.hd results) (Tree.leaf "author" "Paolo Ciancarini"))

let test_project_keeps_hierarchy () =
  let p =
    Pattern.v
      (Pattern.node 1 [ Pattern.pc (Pattern.leaf 2) ])
      (Condition.conj [ Condition.tag_eq 1 "inproceedings"; Condition.tag_eq 2 "author" ])
  in
  let results = Algebra.project ~pattern:p ~pl:[ 1; 2 ] [ dblp ] in
  (* Two papers have authors; both projected inproceedings keep their
     author children (f1 keeps both authors in one tree). *)
  checki "three papers with authors" 3 (List.length results);
  let f1 = List.nth results 1 in
  match f1 with
  | Tree.Element { children; _ } -> checki "both authors kept" 2 (List.length children)
  | _ -> Alcotest.fail "expected element"

let test_product () =
  let c1 = [ Tree.leaf "a" "1"; Tree.leaf "a" "2" ] in
  let c2 = [ Tree.leaf "b" "3" ] in
  let prod = Algebra.product c1 c2 in
  checki "cardinality multiplies" 2 (List.length prod);
  match List.hd prod with
  | Tree.Element { tag; children = [ l; r ]; _ } ->
      checks "root tag" "tax_prod_root" tag;
      checkb "left then right" true
        (tag_of l = Some "a" && tag_of r = Some "b")
  | _ -> Alcotest.fail "expected product node"

let test_join () =
  (* Join papers with an equal-year pair from a second collection. *)
  let years = [ Tree.leaf "y" "1999"; Tree.leaf "y" "1975" ] in
  let p =
    Pattern.v
      (Pattern.node 0
         [
           Pattern.pc (Pattern.node 1 [ Pattern.ad (Pattern.leaf 2) ]);
           Pattern.pc (Pattern.leaf 3);
         ])
      (Condition.conj
         [
           Condition.tag_eq 0 Algebra.prod_root_tag;
           Condition.tag_eq 1 "dblp";
           Condition.tag_eq 2 "year";
           Condition.tag_eq 3 "y";
           Condition.Cmp (Condition.Content 2, Condition.Eq, Condition.Content 3);
         ])
  in
  let results = Algebra.join ~pattern:p ~sl:[] [ dblp ] years in
  checki "only 1999 joins" 1 (List.length results)

let test_set_operations () =
  let a = Tree.leaf "x" "1" in
  let b = Tree.leaf "x" "2" in
  let c = Tree.leaf "x" "3" in
  checki "union dedups" 3 (List.length (Algebra.union [ a; b ] [ b; c ]));
  checki "intersect" 1 (List.length (Algebra.intersect [ a; b ] [ b; c ]));
  checki "difference" 1 (List.length (Algebra.difference [ a; b ] [ b; c ]));
  checkb "difference keeps the right tree" true
    (Tree.equal (List.hd (Algebra.difference [ a; b ] [ b; c ])) a);
  checki "empty difference" 0 (List.length (Algebra.difference [ a ] [ a ]))

let test_witness_mixed_matches () =
  (* A pattern matching both a shallow and a deep node: the witness tree
     connects them through closest-ancestor, skipping unmatched levels. *)
  let doc2 = Doc.of_tree (Toss_xml.Parser.parse_exn "<a><skip><b>x</b></skip></a>") in
  let p =
    Pattern.v
      (Pattern.node 1 [ Pattern.ad (Pattern.leaf 2) ])
      (Condition.conj [ Condition.tag_eq 1 "a"; Condition.tag_eq 2 "b" ])
  in
  let bindings = Embedding.enumerate ~eval:Condition.eval_tax doc2 p in
  checki "one embedding" 1 (List.length bindings);
  let w = Witness.of_binding doc2 (List.hd bindings) ~sl:[] in
  checkb "skip level elided" true
    (Tree.equal w (Tree.element "a" [ Tree.leaf "b" "x" ]))

let test_embedding_not_injective () =
  (* Two pattern nodes may map to the same data node (TAX embeddings are
     total mappings, not injections). *)
  let p =
    Pattern.v
      (Pattern.node 1 [ Pattern.ad (Pattern.leaf 2); Pattern.ad (Pattern.leaf 3) ])
      (Condition.conj
         [ Condition.tag_eq 1 "dblp"; Condition.tag_eq 2 "author";
           Condition.tag_eq 3 "author" ])
  in
  let bindings = Embedding.enumerate ~eval:Condition.eval_tax dblp_doc p in
  checkb "non-injective embeddings included" true
    (List.exists (fun b -> List.assoc 2 b = List.assoc 3 b) bindings);
  checki "4x4 combinations" 16 (List.length bindings)

let () =
  Alcotest.run "toss_tax"
    [
      ( "pattern",
        [
          Alcotest.test_case "labels and lookup" `Quick test_pattern_labels;
          Alcotest.test_case "distinct labels enforced" `Quick
            test_pattern_distinct_labels_enforced;
        ] );
      ( "condition",
        [
          Alcotest.test_case "comparisons" `Quick test_condition_cmp;
          Alcotest.test_case "boolean connectives" `Quick test_condition_boolean;
          Alcotest.test_case "TAX degradations of ontology" `Quick
            test_condition_tax_degradations;
          Alcotest.test_case "helpers" `Quick test_condition_helpers;
        ] );
      ( "embedding",
        [
          Alcotest.test_case "basic" `Quick test_embeddings_basic;
          Alcotest.test_case "multiple embeddings" `Quick test_embeddings_multiple;
          Alcotest.test_case "ancestor-descendant edges" `Quick test_embeddings_ad_edge;
          Alcotest.test_case "cross-label conditions" `Quick
            test_embeddings_cross_label_condition;
          Alcotest.test_case "candidate narrowing" `Quick test_embeddings_candidates_narrow;
        ] );
      ( "witness",
        [
          Alcotest.test_case "shape" `Quick test_witness_shape;
          Alcotest.test_case "SL expands subtrees" `Quick test_witness_sl_expands;
          Alcotest.test_case "document order preserved" `Quick test_witness_order_preserved;
          Alcotest.test_case "forest of disjoint nodes" `Quick
            test_witness_forest_of_disjoint_nodes;
          Alcotest.test_case "intermediate levels elided" `Quick test_witness_mixed_matches;
          Alcotest.test_case "non-injective embeddings" `Quick
            test_embedding_not_injective;
        ] );
      ( "algebra",
        [
          Alcotest.test_case "selection" `Quick test_select;
          Alcotest.test_case "duplicate witnesses collapse" `Quick
            test_select_duplicate_witnesses_collapsed;
          Alcotest.test_case "projection (example 5)" `Quick test_project_example5;
          Alcotest.test_case "projection keeps hierarchy" `Quick test_project_keeps_hierarchy;
          Alcotest.test_case "product" `Quick test_product;
          Alcotest.test_case "join" `Quick test_join;
          Alcotest.test_case "set operations" `Quick test_set_operations;
        ] );
    ]
