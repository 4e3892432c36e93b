(* Tests for ontologies, interoperation constraints, canonical fusion
   (paper Definitions 4-6, Examples 9-10), the lexicon, and the Ontology
   Maker. *)

module Node = Toss_hierarchy.Node
module Hierarchy = Toss_hierarchy.Hierarchy
module Ontology = Toss_ontology.Ontology
module Interop = Toss_ontology.Interop
module Fusion = Toss_ontology.Fusion
module Lexicon = Toss_ontology.Lexicon
module Maker = Toss_ontology.Maker
module Tree = Toss_xml.Tree
module Doc = Tree.Doc

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let check_sl = Alcotest.(check (list string))

(* ------------------------------------------------------------------ *)
(* Ontology maps                                                        *)
(* ------------------------------------------------------------------ *)

let test_ontology_defaults () =
  checkb "isa defined on empty" true
    (List.mem Ontology.isa (Ontology.relations Ontology.empty));
  checkb "part-of defined on empty" true
    (List.mem Ontology.part_of (Ontology.relations Ontology.empty));
  checki "get of unknown relation is empty" 0
    (Hierarchy.n_nodes (Ontology.get "color-of" Ontology.empty))

let test_ontology_add_update () =
  let h = Hierarchy.of_pairs [ ("a", "b") ] in
  let o = Ontology.add "custom" h Ontology.empty in
  checkb "added" true (Hierarchy.equal (Ontology.get "custom" o) h);
  let o =
    Ontology.add "custom" (Hierarchy.add_leq ~lower:"c" ~upper:"a" (Ontology.get "custom" o)) o
  in
  checkb "replaced" true (Hierarchy.leq (Ontology.get "custom" o) "c" "b");
  Alcotest.(check (list string)) "relations sorted"
    [ "custom"; "isa"; "part-of" ] (Ontology.relations o)

let fuse_exn ?auto_equate hs constraints =
  match Fusion.fuse ?auto_equate hs constraints with
  | Ok r -> r
  | Error e -> Alcotest.failf "fusion failed: %a" Fusion.pp_error e

(* ------------------------------------------------------------------ *)
(* Interoperation constraints                                           *)
(* ------------------------------------------------------------------ *)

let test_interop_expand () =
  let eq = Interop.eq ("booktitle", 0) ("conference", 1) in
  match Interop.expand [ eq ] with
  | [ Interop.Leq (a, b); Interop.Leq (c, d) ] ->
      checkb "first direction" true (a.Interop.term = "booktitle" && b.Interop.term = "conference");
      checkb "second direction" true (c.Interop.term = "conference" && d.Interop.term = "booktitle")
  | _ -> Alcotest.fail "Eq must expand to two Leqs"

let test_interop_neq_passthrough () =
  let neq = Interop.neq ("a", 0) ("b", 1) in
  checki "neq unchanged" 1 (List.length (Interop.expand [ neq ]))

(* ------------------------------------------------------------------ *)
(* Fusion (the paper's Example 10: SIGMOD + DBLP part-of hierarchies)    *)
(* ------------------------------------------------------------------ *)

(* Figure 9(a): the SIGMOD proceedings-page hierarchy. *)
let sigmod_h =
  Hierarchy.of_pairs
    [
      ("article", "articles");
      ("author", "article");
      ("title", "article");
      ("conference", "article");
      ("confYear", "article");
    ]

(* Figure 9(b): the DBLP hierarchy. *)
let dblp_h =
  Hierarchy.of_pairs
    [
      ("author", "inproceedings");
      ("title", "inproceedings");
      ("booktitle", "inproceedings");
      ("year", "inproceedings");
      ("pages", "inproceedings");
    ]

(* Example 10's constraints, adapted to sources 0 (SIGMOD) and 1 (DBLP). *)
let example10_constraints =
  [
    Interop.eq ("conference", 0) ("booktitle", 1);
    Interop.eq ("title", 0) ("title", 1);
    Interop.eq ("author", 0) ("author", 1);
    Interop.eq ("confYear", 0) ("year", 1);
  ]

let test_fusion_example10 () =
  let { Fusion.fused; witness } =
    fuse_exn ~auto_equate:false [ sigmod_h; dblp_h ] example10_constraints
  in
  (* The equated pairs are merged into single nodes. *)
  let node_of term = Hierarchy.nodes_of term fused in
  (match node_of "conference" with
  | [ n ] -> check_sl "conference+booktitle merged" [ "booktitle"; "conference" ] (Node.strings n)
  | _ -> Alcotest.fail "conference should be in exactly one fused node");
  (match node_of "confYear" with
  | [ n ] -> check_sl "confYear+year merged" [ "confYear"; "year" ] (Node.strings n)
  | _ -> Alcotest.fail "confYear should be in one fused node");
  (* Orderings from both sources survive. *)
  checkb "sigmod ordering preserved" true (Hierarchy.leq fused "author" "articles");
  checkb "dblp ordering preserved" true (Hierarchy.leq fused "booktitle" "inproceedings");
  checkb "cross-source through merged node" true (Hierarchy.leq fused "year" "article");
  (* Witness maps each input node into the fusion. *)
  (match Fusion.psi witness ~source:0 (Node.singleton "conference") with
  | Some n -> checkb "psi lands in merged node" true (Node.mem "booktitle" n)
  | None -> Alcotest.fail "psi undefined on an input node");
  checkb "psi_term" true
    (Fusion.psi_term witness ~source:1 "pages" <> None);
  checkb "psi on unknown node" true
    (Fusion.psi witness ~source:0 (Node.singleton "zzz") = None)

let test_fusion_axioms () =
  let result =
    fuse_exn ~auto_equate:false [ sigmod_h; dblp_h ] example10_constraints
  in
  match
    Fusion.check_integration [ sigmod_h; dblp_h ] example10_constraints result
  with
  | Ok () -> ()
  | Error msgs -> Alcotest.fail (String.concat "; " msgs)

let test_fusion_auto_equate () =
  (* Without constraints but with auto-equate, same-spelled terms merge. *)
  let { Fusion.fused; _ } = fuse_exn [ sigmod_h; dblp_h ] [] in
  checki "one author node" 1 (List.length (Hierarchy.nodes_of "author" fused));
  checkb "author below both roots" true
    (Hierarchy.leq fused "author" "articles" && Hierarchy.leq fused "author" "inproceedings");
  (* Without auto-equate and no constraints the sources stay disjoint
     except for colliding spellings, which share a node value. *)
  let { Fusion.fused = manual; _ } =
    fuse_exn ~auto_equate:false [ sigmod_h; dblp_h ] example10_constraints
  in
  checkb "booktitle below articles via constraint" true
    (Hierarchy.leq manual "booktitle" "articles")

let test_fusion_leq_constraint () =
  let h1 = Hierarchy.of_pairs [ ("a", "b") ] in
  let h2 = Hierarchy.of_pairs [ ("x", "y") ] in
  let { Fusion.fused; _ } =
    fuse_exn ~auto_equate:false [ h1; h2 ] [ Interop.leq ("b", 0) ("x", 1) ]
  in
  checkb "leq creates ordering not merge" true (Hierarchy.leq fused "a" "y");
  checki "b stays its own node" 1 (List.length (Hierarchy.nodes_of "b" fused));
  checkb "b and x distinct" false
    (Node.equal
       (List.hd (Hierarchy.nodes_of "b" fused))
       (List.hd (Hierarchy.nodes_of "x" fused)))

let test_fusion_neq_violation () =
  let h1 = Hierarchy.of_pairs [ ("a", "b") ] in
  let h2 = Hierarchy.of_pairs [ ("a", "c") ] in
  (* auto-equate merges the two spellings of a, violating the Neq. *)
  match Fusion.fuse [ h1; h2 ] [ Interop.neq ("a", 0) ("a", 1) ] with
  | Error (Fusion.Neq_violated _) -> ()
  | Error e -> Alcotest.fail (Format.asprintf "unexpected error %a" Fusion.pp_error e)
  | Ok _ -> Alcotest.fail "Neq violation not detected"

let test_fusion_unknown_source () =
  match Fusion.fuse [ sigmod_h ] [ Interop.eq ("a", 0) ("b", 7) ] with
  | Error (Fusion.Unknown_source _) -> ()
  | _ -> Alcotest.fail "out-of-range source not detected"

let test_fusion_cycle_of_equalities_is_fine () =
  (* a <= b in source 0, b' <= a' in source 1, with a=a' and b=b':
     the constraint cycle collapses a and b into ONE node rather than
     failing (SCC condensation). *)
  let h1 = Hierarchy.of_pairs [ ("p", "q") ] in
  let h2 = Hierarchy.of_pairs [ ("q", "p") ] in
  let { Fusion.fused; _ } = fuse_exn [ h1; h2 ] [] in
  match Hierarchy.nodes_of "p" fused with
  | [ n ] -> check_sl "p and q merged" [ "p"; "q" ] (Node.strings n)
  | _ -> Alcotest.fail "expected a single merged node"

let test_fuse_ontologies () =
  let o1 = Ontology.add Ontology.part_of sigmod_h Ontology.empty in
  let o2 = Ontology.add Ontology.part_of dblp_h Ontology.empty in
  match
    Fusion.fuse_ontologies [ o1; o2 ] [ (Ontology.part_of, example10_constraints) ]
  with
  | Ok fused ->
      checkb "part-of fused" true
        (Hierarchy.leq (Ontology.get Ontology.part_of fused) "year" "article")
  | Error (rel, e) ->
      Alcotest.fail (Format.asprintf "fusion failed on %s: %a" rel Fusion.pp_error e)

(* ------------------------------------------------------------------ *)
(* Lexicon                                                              *)
(* ------------------------------------------------------------------ *)

let test_lexicon_synsets () =
  let lex = Lexicon.empty |> Lexicon.add_synset [ "car"; "automobile" ] in
  check_sl "synonyms" [ "automobile"; "car" ]
    (List.sort String.compare (Lexicon.synonyms lex "car"));
  check_sl "unknown term is its own synonym" [ "ufo" ] (Lexicon.synonyms lex "ufo")

let test_lexicon_synset_merge () =
  let lex =
    Lexicon.empty
    |> Lexicon.add_synset [ "a"; "b" ]
    |> Lexicon.add_synset [ "c"; "d" ]
    |> Lexicon.add_synset [ "b"; "c" ]
  in
  check_sl "merged synset" [ "a"; "b"; "c"; "d" ]
    (List.sort String.compare (Lexicon.synonyms lex "a"));
  (* Merging the two ends of an isa edge leaves no edge behind, neither a
     self-loop nor one to the synset that was merged away. *)
  let lex =
    Lexicon.empty
    |> Lexicon.add_isa ~sub:"x" ~super:"y"
    |> Lexicon.add_isa ~sub:"y" ~super:"z"
    |> Lexicon.add_synset [ "x"; "y" ]
  in
  let isa = Lexicon.isa_hierarchy lex in
  checki "merged ends form one node" 2 (Hierarchy.n_nodes isa);
  checkb "merged node below z" true (Hierarchy.leq isa "x" "z")

let test_lexicon_hypernyms () =
  let lex =
    Lexicon.empty
    |> Lexicon.add_isa ~sub:"dog" ~super:"canine"
    |> Lexicon.add_isa ~sub:"canine" ~super:"animal"
    |> Lexicon.add_synset [ "dog"; "hound" ]
  in
  (* Hypernymy is what the Maker reads, through the isa hierarchy. *)
  let isa = Lexicon.isa_hierarchy lex in
  let above term =
    List.filter
      (fun t -> Hierarchy.leq isa term t && not (List.mem t (Lexicon.synonyms lex term)))
      (Hierarchy.terms isa)
  in
  check_sl "hypernyms" [ "animal"; "canine" ] (above "dog");
  check_sl "synonyms share hypernyms" [ "animal"; "canine" ] (above "hound");
  check_sl "roots have none" [] (above "animal")

let test_lexicon_hierarchies () =
  let lex =
    Lexicon.empty
    |> Lexicon.add_isa ~sub:"dog" ~super:"animal"
    |> Lexicon.add_isa ~sub:"cat" ~super:"animal"
  in
  let isa = Lexicon.isa_hierarchy lex in
  checkb "isa edge" true (Hierarchy.leq isa "dog" "animal");
  checkb "no isa edge in part-of" false
    (Hierarchy.leq (Lexicon.part_hierarchy lex) "dog" "animal");
  checkb "no part edge in isa" false
    (Hierarchy.leq (Lexicon.isa_hierarchy Lexicon.seeded) "US Census Bureau" "US government");
  (* Restriction keeps the chosen terms and their ancestors only. *)
  let restricted = Lexicon.isa_hierarchy ~restrict_to:[ "dog" ] lex in
  checkb "dog kept" true (Hierarchy.mem_term "dog" restricted);
  checkb "ancestor kept" true (Hierarchy.mem_term "animal" restricted);
  checkb "cat dropped" false (Hierarchy.mem_term "cat" restricted)

let test_lexicon_seeded () =
  let lex = Lexicon.seeded in
  checkb "US Census Bureau part of US government" true
    (Hierarchy.leq (Lexicon.part_hierarchy lex) "US Census Bureau" "US government");
  checkb "VLDB isa database conference" true
    (Hierarchy.leq (Lexicon.isa_hierarchy lex) "VLDB" "database conference");
  checkb "database conference isa conference" true
    (Hierarchy.leq (Lexicon.isa_hierarchy lex) "database conference" "conference");
  checkb "booktitle and conference synonymous" true
    (List.mem "conference" (Lexicon.synonyms lex "booktitle"));
  checkb "Google under company" true
    (Hierarchy.leq (Lexicon.isa_hierarchy lex) "Google" "company");
  checkb "inproceedings isa document" true
    (Hierarchy.leq (Lexicon.isa_hierarchy lex) "inproceedings" "document");
  checkb "reasonably sized" true
    (List.length (Hierarchy.terms (Lexicon.isa_hierarchy lex)) > 100)

let test_lexicon_seeded_extended () =
  let lex = Lexicon.seeded in
  let isa = Lexicon.isa_hierarchy lex in
  let part = Lexicon.part_hierarchy lex in
  checkb "journal taxonomy" true (Hierarchy.leq isa "TODS" "journal");
  checkb "journals are documents" true (Hierarchy.leq isa "TKDE" "document");
  checkb "topic chain" true (Hierarchy.leq isa "B-tree" "data management");
  checkb "record linkage under data integration" true
    (Hierarchy.leq isa "record linkage" "data integration");
  checkb "TAX is a tree algebra" true (Hierarchy.leq isa "TAX" "semistructured data");
  checkb "research labs" true (Hierarchy.leq isa "IBM Almaden" "research lab");
  checkb "lab part of company" true (Hierarchy.leq part "IBM Almaden" "IBM");
  checkb "city part of country" true (Hierarchy.leq part "San Diego" "USA");
  checkb "country synonyms" true (List.mem "United States" (Lexicon.synonyms lex "USA"));
  checkb "both hierarchies acyclic" true
    (Hierarchy.is_consistent isa && Hierarchy.is_consistent part)

let test_lexicon_synthetic () =
  let lex = Lexicon.synthetic ~seed:7 ~n_terms:300 in
  let h = Lexicon.isa_hierarchy lex in
  checki "requested size" 300 (List.length (Hierarchy.terms h));
  (* Deterministic given the seed. *)
  let lex' = Lexicon.synthetic ~seed:7 ~n_terms:300 in
  checkb "deterministic" true (Hierarchy.equal h (Lexicon.isa_hierarchy lex'));
  (* The isa graph is a usable hierarchy (acyclic by construction). *)
  checkb "consistent" true (Hierarchy.is_consistent h);
  checkb "has edges" true (Hierarchy.n_edges h > 100)

(* ------------------------------------------------------------------ *)
(* Ontology Maker                                                       *)
(* ------------------------------------------------------------------ *)

let dblp_doc =
  Doc.of_tree
    (Toss_xml.Parser.parse_exn
       {|<dblp>
           <inproceedings key="p1">
             <author>Jeff Ullman</author>
             <title>Principles</title>
             <booktitle>VLDB</booktitle>
             <year>1998</year>
           </inproceedings>
         </dblp>|})

let test_maker_part_of_from_nesting () =
  let o = Maker.make dblp_doc in
  let part = Ontology.get Ontology.part_of o in
  checkb "author part of inproceedings" true (Hierarchy.leq part "author" "inproceedings");
  checkb "inproceedings part of dblp" true (Hierarchy.leq part "inproceedings" "dblp");
  checkb "transitive" true (Hierarchy.leq part "author" "dblp");
  checkb "not reversed" false (Hierarchy.leq part "dblp" "author")

let test_maker_isa_content_below_tag () =
  let o = Maker.make dblp_doc in
  let isa = Ontology.get Ontology.isa o in
  checkb "content value below its tag" true (Hierarchy.leq isa "Jeff Ullman" "author");
  checkb "venue below booktitle tag" true (Hierarchy.leq isa "VLDB" "booktitle");
  checkb "lexicon links venue to category" true
    (Hierarchy.leq isa "VLDB" "database conference")

let test_maker_content_tags_filter () =
  let o = Maker.make ~content_tags:[ "author" ] dblp_doc in
  let isa = Ontology.get Ontology.isa o in
  checkb "author content kept" true (Hierarchy.mem_term "Jeff Ullman" isa);
  checkb "title content dropped" false (Hierarchy.mem_term "Principles" isa)

let test_maker_max_content_terms () =
  let o = Maker.make ~max_content_terms:0 dblp_doc in
  let isa = Ontology.get Ontology.isa o in
  checkb "no content terms" false (Hierarchy.mem_term "Jeff Ullman" isa)

let test_maker_auto_constraints () =
  let sigmod_doc =
    Doc.of_tree
      (Toss_xml.Parser.parse_exn
         {|<proceedings>
             <conference>International Conference on Very Large Data Bases</conference>
             <confYear>1998</confYear>
           </proceedings>|})
  in
  let ontologies = Maker.make_all [ dblp_doc; sigmod_doc ] in
  let constraints = Maker.auto_constraints ontologies in
  let all = List.concat_map snd constraints in
  (* booktitle (source 0) and conference (source 1) are lexicon synonyms
     spelled differently, so an equality constraint must be emitted. *)
  checkb "booktitle=conference emitted" true
    (List.exists
       (fun c ->
         match c with
         | Interop.Eq (a, b) ->
             (a.Interop.term = "booktitle" && b.Interop.term = "conference")
             || (a.Interop.term = "conference" && b.Interop.term = "booktitle")
         | _ -> false)
       all);
  (* The fused ontology relates terms across the two schemas. *)
  match Fusion.fuse_ontologies ontologies constraints with
  | Ok fused ->
      let isa = Ontology.get Ontology.isa fused in
      checkb "cross-schema tag equivalence" true (Hierarchy.leq isa "VLDB" "conference")
  | Error (rel, e) ->
      Alcotest.fail (Format.asprintf "fusion failed on %s: %a" rel Fusion.pp_error e)

let test_maker_handles_recursive_nesting () =
  let doc =
    Doc.of_tree (Toss_xml.Parser.parse_exn "<a><b><a><b>x</b></a></b></a>")
  in
  let o = Maker.make doc in
  (* b inside a and a inside b: the cycle guard must keep the hierarchy a
     DAG (one direction wins). *)
  checkb "part-of stays consistent" true
    (Hierarchy.is_consistent (Ontology.get Ontology.part_of o))

(* ------------------------------------------------------------------ *)
(* Random fusion properties                                             *)
(* ------------------------------------------------------------------ *)

(* Random acyclic hierarchies over overlapping per-source term pools, so
   auto-equate has real work to do. *)
let random_hierarchy_gen source =
  QCheck2.Gen.(
    let pool = Array.init 8 (fun i -> Printf.sprintf "t%d" (i + (source * 4))) in
    let n = Array.length pool in
    let* edges =
      list_size (int_range 1 10)
        (let* i = int_range 0 (n - 1) in
         let* j = int_range 0 (n - 1) in
         return (min i j, max i j))
    in
    let pairs =
      List.filter_map
        (fun (i, j) -> if i = j then None else Some (pool.(i), pool.(j)))
        edges
    in
    return (Hierarchy.of_pairs pairs))

let random_hierarchies_gen =
  QCheck2.Gen.(
    let* k = int_range 2 3 in
    flatten_l (List.init k random_hierarchy_gen))

let prop_fusion_axioms =
  QCheck2.Test.make ~name:"fusion satisfies the definition 5 axioms" ~count:100
    random_hierarchies_gen (fun hs ->
      match Fusion.fuse hs [] with
      | Error _ -> false
      | Ok result -> (
          match Fusion.check_integration hs [] result with
          | Ok () -> true
          | Error _ -> false))

let prop_fusion_with_constraints =
  QCheck2.Test.make ~name:"Leq constraints are honoured by the fusion" ~count:100
    QCheck2.Gen.(
      pair random_hierarchies_gen
        (list_size (int_range 0 4)
           (let* x = int_range 0 7 in
            let* y = int_range 0 7 in
            let* i = int_range 0 1 in
            let* j = int_range 0 1 in
            return (Printf.sprintf "t%d" (x + (i * 4)), i, Printf.sprintf "t%d" (y + (j * 4)), j))))
    (fun (hs, raw) ->
      let constraints =
        List.filter_map
          (fun (x, i, y, j) ->
            if i <> j && i < List.length hs && j < List.length hs then
              Some (Interop.leq (x, i) (y, j))
            else None)
          raw
      in
      match Fusion.fuse hs constraints with
      | Error _ -> false
      | Ok result -> (
          match Fusion.check_integration hs constraints result with
          | Ok () -> true
          | Error _ -> false))

let prop_fusion_result_is_hierarchy =
  QCheck2.Test.make ~name:"fused result is an acyclic Hasse diagram" ~count:100
    random_hierarchies_gen (fun hs ->
      match Fusion.fuse hs [] with
      | Error _ -> false
      | Ok { Fusion.fused; _ } ->
          Hierarchy.is_consistent fused
          && Hierarchy.equal fused (Hierarchy.normalize fused))

let () =
  Alcotest.run "toss_ontology"
    [
      ( "ontology",
        [
          Alcotest.test_case "defaults" `Quick test_ontology_defaults;
          Alcotest.test_case "add and update" `Quick test_ontology_add_update;
        ] );
      ( "interop",
        [
          Alcotest.test_case "Eq expands to two Leqs" `Quick test_interop_expand;
          Alcotest.test_case "Neq passes through" `Quick test_interop_neq_passthrough;
        ] );
      ( "fusion",
        [
          Alcotest.test_case "paper example 10" `Quick test_fusion_example10;
          Alcotest.test_case "definition 5 axioms" `Quick test_fusion_axioms;
          Alcotest.test_case "auto-equate" `Quick test_fusion_auto_equate;
          Alcotest.test_case "Leq constraint orders without merging" `Quick
            test_fusion_leq_constraint;
          Alcotest.test_case "Neq violation detected" `Quick test_fusion_neq_violation;
          Alcotest.test_case "unknown source rejected" `Quick test_fusion_unknown_source;
          Alcotest.test_case "equality cycles condense" `Quick
            test_fusion_cycle_of_equalities_is_fine;
          Alcotest.test_case "ontology-level fusion" `Quick test_fuse_ontologies;
          QCheck_alcotest.to_alcotest prop_fusion_axioms;
          QCheck_alcotest.to_alcotest prop_fusion_with_constraints;
          QCheck_alcotest.to_alcotest prop_fusion_result_is_hierarchy;
        ] );
      ( "lexicon",
        [
          Alcotest.test_case "synsets" `Quick test_lexicon_synsets;
          Alcotest.test_case "synset merging" `Quick test_lexicon_synset_merge;
          Alcotest.test_case "hypernyms" `Quick test_lexicon_hypernyms;
          Alcotest.test_case "hierarchies and restriction" `Quick test_lexicon_hierarchies;
          Alcotest.test_case "seeded domain entries" `Quick test_lexicon_seeded;
          Alcotest.test_case "seeded extended vocabulary" `Quick
            test_lexicon_seeded_extended;
          Alcotest.test_case "synthetic generator" `Quick test_lexicon_synthetic;
        ] );
      ( "maker",
        [
          Alcotest.test_case "part-of from nesting" `Quick test_maker_part_of_from_nesting;
          Alcotest.test_case "isa with content below tags" `Quick
            test_maker_isa_content_below_tag;
          Alcotest.test_case "content tag filter" `Quick test_maker_content_tags_filter;
          Alcotest.test_case "content term cap" `Quick test_maker_max_content_terms;
          Alcotest.test_case "auto constraints from lexicon" `Quick
            test_maker_auto_constraints;
          Alcotest.test_case "recursive nesting stays acyclic" `Quick
            test_maker_handles_recursive_nesting;
        ] );
    ]
