(* Tests for the XML tree model, parser, printer and type inference. *)

module Tree = Toss_xml.Tree
module Doc = Tree.Doc
module Parser = Toss_xml.Parser
module Printer = Toss_xml.Printer
module Value_type = Toss_xml.Value_type

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)
let check_il = Alcotest.(check (list int))

let parse = Parser.parse_exn

(* ------------------------------------------------------------------ *)
(* Tree constructors and folds                                          *)
(* ------------------------------------------------------------------ *)

let sample =
  Tree.element "inproceedings"
    [
      Tree.leaf "author" "Jeff Ullman";
      Tree.leaf "title" "Principles";
      Tree.element "venue" [ Tree.leaf "name" "PODS" ];
    ]

let test_tree_basics () =
  checks "string value concatenates" "Jeff UllmanPrinciplesPODS" (Tree.string_value sample)

let test_tree_map_fold () =
  (* Five elements and three text nodes. *)
  let count = Tree.fold (fun n _ -> n + 1) 0 sample in
  checki "fold visits every node" 8 count

let test_tree_equality () =
  checkb "equal to itself" true (Tree.equal sample sample);
  checkb "order matters" false
    (Tree.equal
       (Tree.element "r" [ Tree.leaf "a" "1"; Tree.leaf "b" "2" ])
       (Tree.element "r" [ Tree.leaf "b" "2"; Tree.leaf "a" "1" ]));
  checkb "attrs matter" false
    (Tree.equal (Tree.element ~attrs:[ ("k", "v") ] "a" []) (Tree.element "a" []))

(* ------------------------------------------------------------------ *)
(* Frozen documents                                                     *)
(* ------------------------------------------------------------------ *)

let doc = Doc.of_tree sample

let test_doc_structure () =
  checki "root is 0" 0 (Doc.root doc);
  checki "five elements" 5 (Doc.size doc);
  checks "root tag" "inproceedings" (Doc.tag doc 0);
  check_il "children of root" [ 1; 2; 3 ] (Doc.children doc 0);
  checkb "parent of root" true (Doc.parent doc 0 = None);
  checkb "parent of child" true (Doc.parent doc 1 = Some 0)

let test_doc_ancestry () =
  checkb "child relation" true (Doc.is_child doc ~parent:0 ~child:1);
  checkb "not grandchild as child" false (Doc.is_child doc ~parent:0 ~child:4);
  checkb "descendant" true (Doc.is_descendant doc ~anc:0 ~desc:4);
  checkb "strict" false (Doc.is_descendant doc ~anc:3 ~desc:3);
  checkb "not reversed" false (Doc.is_descendant doc ~anc:4 ~desc:0);
  check_il "descendants of venue" [ 4 ] (Doc.descendants doc 3);
  check_il "descendants of root" [ 1; 2; 3; 4 ] (Doc.descendants doc 0)

let test_doc_content_and_tags () =
  checks "leaf content" "Jeff Ullman" (Doc.content doc 1);
  checks "inner content is string-value" "PODS" (Doc.content doc 3);
  check_il "by_tag author" [ 1 ] (Doc.by_tag doc "author");
  check_il "by_tag missing" [] (Doc.by_tag doc "zzz");
  Alcotest.(check (list string)) "tags sorted"
    [ "author"; "inproceedings"; "name"; "title"; "venue" ]
    (Doc.tags doc)

let test_doc_subtree_roundtrip () =
  checkb "subtree of root rebuilds the tree" true (Tree.equal (Doc.to_tree doc) sample);
  checkb "subtree of inner node" true
    (Tree.equal (Doc.subtree doc 3) (Tree.element "venue" [ Tree.leaf "name" "PODS" ]))

let test_doc_rejects_text_root () =
  Alcotest.check_raises "text root" (Invalid_argument "Doc.of_tree: root must be an element")
    (fun () -> ignore (Doc.of_tree (Tree.text "x")))

(* ------------------------------------------------------------------ *)
(* Parser                                                               *)
(* ------------------------------------------------------------------ *)

let test_parse_simple () =
  let t = parse "<a><b>hello</b><c/></a>" in
  checkb "structure" true
    (Tree.equal t (Tree.element "a" [ Tree.leaf "b" "hello"; Tree.element "c" [] ]))

let test_parse_attributes () =
  let t = parse {|<paper key="p1" year='1999'/>|} in
  match t with
  | Tree.Element { attrs; _ } ->
      checkb "double quoted" true (List.assoc_opt "key" attrs = Some "p1");
      checkb "single quoted" true (List.assoc_opt "year" attrs = Some "1999")
  | _ -> Alcotest.fail "expected element"

let test_parse_entities () =
  checks "predefined entities" "a<b&c>d\"e'f"
    (Tree.string_value (parse "<x>a&lt;b&amp;c&gt;d&quot;e&apos;f</x>"));
  checks "decimal reference" "A" (Tree.string_value (parse "<x>&#65;</x>"));
  checks "hex reference" "A" (Tree.string_value (parse "<x>&#x41;</x>"));
  checks "entity in attribute" "a&b"
    (match parse {|<x k="a&amp;b"/>|} with
    | Tree.Element { attrs; _ } -> List.assoc "k" attrs
    | _ -> "")

let test_parse_prolog_comments_cdata () =
  let t =
    parse
      {|<?xml version="1.0"?>
        <!-- header comment -->
        <!DOCTYPE dblp SYSTEM "dblp.dtd">
        <a><!-- inner --><b><![CDATA[x < y & z]]></b></a>|}
  in
  checks "cdata kept verbatim" "x < y & z" (Tree.string_value t)

let test_parse_whitespace_handling () =
  let t = parse "<a>\n  <b>x</b>\n</a>" in
  checkb "whitespace-only text dropped" true
    (Tree.equal t (Tree.element "a" [ Tree.leaf "b" "x" ]));
  let kept = Parser.parse_exn ~keep_whitespace:true "<a> <b>x</b></a>" in
  checkb "whitespace kept on demand" true
    (Tree.equal kept (Tree.element "a" [ Tree.text " "; Tree.leaf "b" "x" ]))

let expect_error input =
  match Parser.parse input with
  | Ok _ -> Alcotest.fail ("expected a parse error for " ^ input)
  | Error _ -> ()

let test_parse_errors () =
  expect_error "<a><b></a>";
  expect_error "<a>";
  expect_error "text only";
  expect_error "<a></a><b></b>";
  expect_error "<a>&unknown;</a>";
  expect_error "<a foo=bar></a>";
  let () =
    match Parser.parse "<a>\n<b></c></a>" with
    | Error e -> checki "line number reported" 2 e.Parser.line
    | Ok _ -> Alcotest.fail "expected mismatch error"
  in
  ()

(* ------------------------------------------------------------------ *)
(* Printer                                                              *)
(* ------------------------------------------------------------------ *)

let test_print_escaping () =
  checks "text escaping" "<x>a&amp;b&lt;c&gt;d</x>"
    (Printer.to_string (Tree.leaf "x" "a&b<c>d"));
  checks "attr escaping" {|<x k="a&quot;b"/>|}
    (Printer.to_string (Tree.element ~attrs:[ ("k", "a\"b") ] "x" []))

let test_print_parse_roundtrip () =
  let printed = Printer.to_string sample in
  checkb "roundtrip" true (Tree.equal (parse printed) sample);
  let pretty = Printer.to_pretty_string sample in
  checkb "pretty roundtrip" true (Tree.equal (parse pretty) sample)

let test_byte_size () =
  checki "byte size matches serialization" (String.length (Printer.to_string sample))
    (Printer.byte_size sample)

(* Random trees: parse (print t) = t. *)
let tree_gen =
  let open QCheck2.Gen in
  let tag_gen = oneofl [ "a"; "b"; "c"; "item"; "x1" ] in
  let text_gen = string_size ~gen:(char_range 'a' 'z') (int_range 1 8) in
  let rec tree n =
    if n <= 0 then map2 (fun t s -> Tree.leaf t s) tag_gen text_gen
    else
      frequency
        [
          (1, map2 (fun t s -> Tree.leaf t s) tag_gen text_gen);
          ( 2,
            let* tag = tag_gen in
            let* kids = list_size (int_range 0 3) (tree (n - 1)) in
            return (Tree.element tag kids) );
        ]
  in
  tree 3

let prop_print_parse_roundtrip =
  QCheck2.Test.make ~name:"parse inverts print on generated trees" ~count:200 tree_gen
    (fun t -> Tree.equal (parse (Printer.to_string t)) t)

(* A sharper round-trip property: text and attribute values draw from
   the full escaping-relevant alphabet (markup characters, both quote
   kinds, entity ampersands, tabs, newlines, "]]>"), elements may carry
   attributes, and whitespace-only text nodes are allowed. Reparsing
   with [keep_whitespace:true] must reproduce the tree exactly. The
   generator keeps trees in parse normal form — no empty and no adjacent
   text nodes, since serialization concatenates those irrecoverably. *)
let nasty_tree_gen =
  let open QCheck2.Gen in
  let tag_gen = oneofl [ "a"; "b"; "item"; "x1" ] in
  let nasty_char =
    oneofl [ '&'; '<'; '>'; '"'; '\''; ']'; ' '; '\t'; '\n'; 'a'; 'z'; '0' ]
  in
  let text_gen = string_size ~gen:nasty_char (int_range 1 8) in
  let attrs_gen =
    let* n = int_range 0 2 in
    let* vals = list_repeat n text_gen in
    return (List.mapi (fun i v -> (Printf.sprintf "k%d" i, v)) vals)
  in
  let no_adjacent_text children =
    let rec ok = function
      | Tree.Text _ :: Tree.Text _ :: _ -> false
      | _ :: rest -> ok rest
      | [] -> true
    in
    ok children
  in
  let rec tree n =
    let leaf =
      let* tag = tag_gen and* attrs = attrs_gen and* s = text_gen in
      return (Tree.Element { tag; attrs; children = [ Tree.Text s ] })
    in
    if n <= 0 then leaf
    else
      frequency
        [
          (1, leaf);
          ( 2,
            let* tag = tag_gen and* attrs = attrs_gen in
            let* kids =
              list_size (int_range 0 3)
                (frequency [ (1, map (fun s -> Tree.Text s) text_gen); (2, tree (n - 1)) ])
            in
            let kids = if no_adjacent_text kids then kids else [] in
            return (Tree.Element { tag; attrs; children = kids }) );
        ]
  in
  tree 3

let prop_nasty_roundtrip =
  QCheck2.Test.make ~name:"roundtrip with escaping and whitespace edge cases"
    ~count:500 nasty_tree_gen (fun t ->
      match Parser.parse ~keep_whitespace:true (Printer.to_string t) with
      | Ok t' -> Tree.equal t' t
      | Error e -> QCheck2.Test.fail_reportf "reparse failed: %s" e.Parser.message)

let test_roundtrip_edge_cases () =
  let rt t =
    match Parser.parse ~keep_whitespace:true (Printer.to_string t) with
    | Ok t' -> Tree.equal t' t
    | Error _ -> false
  in
  checkb "markup characters in text" true
    (rt (Tree.leaf "a" "x < y && z > \"w\" 'v'"));
  checkb "cdata-terminator in text" true (rt (Tree.leaf "a" "]]>"));
  checkb "both quote kinds in attributes" true
    (rt (Tree.Element
           { tag = "a"; attrs = [ ("k", {|say "hi" & 'bye' <now>|}) ]; children = [] }));
  checkb "whitespace-only text survives keep_whitespace" true
    (rt (Tree.element "a" [ Tree.element "b" []; Tree.Text "  \n\t "; Tree.element "c" [] ]));
  checkb "attribute with newline and tab" true
    (rt (Tree.Element { tag = "a"; attrs = [ ("k", "l1\nl2\tend") ]; children = [] }));
  (* Character references: astral-plane scalars are fine, surrogate code
     points are a parse error — not a crash. *)
  checkb "astral char-ref parses" true
    (match Parser.parse "<a>&#x1F600;</a>" with Ok _ -> true | Error _ -> false);
  checkb "surrogate char-ref is a clean error" true
    (match Parser.parse "<a>&#xD800;</a>" with Ok _ -> false | Error _ -> true);
  checkb "out-of-range char-ref is a clean error" true
    (match Parser.parse "<a>&#x110000;</a>" with Ok _ -> false | Error _ -> true)

let prop_doc_preorder_invariants =
  QCheck2.Test.make ~name:"preorder ids are consistent with ancestry" ~count:100 tree_gen
    (fun t ->
      let d = Doc.of_tree t in
      List.for_all
        (fun n ->
          List.for_all
            (fun c -> Doc.parent d c = Some n && Doc.is_descendant d ~anc:n ~desc:c)
            (Doc.children d n))
        (Doc.nodes d))

(* ------------------------------------------------------------------ *)
(* Type inference                                                       *)
(* ------------------------------------------------------------------ *)

let vt =
  Alcotest.testable (fun ppf t -> Format.pp_print_string ppf (Value_type.name t)) ( = )

let test_type_inference () =
  Alcotest.check vt "year" Value_type.Year (Value_type.infer "1999");
  Alcotest.check vt "int" Value_type.Int (Value_type.infer "42");
  Alcotest.check vt "big int not year" Value_type.Int (Value_type.infer "30000");
  Alcotest.check vt "float" Value_type.Float (Value_type.infer "3.14");
  Alcotest.check vt "string" Value_type.String (Value_type.infer "SIGMOD");
  Alcotest.check vt "trimmed" Value_type.Year (Value_type.infer " 1999 ");
  checkb "of_name inverts name" true
    (List.for_all
       (fun t -> Value_type.of_name (Value_type.name t) = Some t)
       [ Value_type.Int; Value_type.Float; Value_type.Year; Value_type.String ]);
  checkb "unknown name" true (Value_type.of_name "blob" = None)

(* ------------------------------------------------------------------ *)
(* SAX                                                                  *)
(* ------------------------------------------------------------------ *)

module Sax = Toss_xml.Sax

let test_sax_entities () =
  match Sax.trees_where (fun tag -> tag = "a") "<a>x&amp;y<![CDATA[ <raw> ]]></a>" with
  | Error e -> Alcotest.fail (Format.asprintf "%a" Parser.pp_error e)
  | Ok trees ->
      checkb "entity decoded and cdata merged" true
        (trees = [ Tree.element "a" [ Tree.text "x&y <raw> " ] ])

let dblp_like =
  {|<dblp>
      <inproceedings key="p1"><title>A</title></inproceedings>
      <article key="p2"><title>B</title></article>
      <inproceedings key="p3"><title>C</title></inproceedings>
    </dblp>|}

let test_sax_trees_where () =
  match Sax.trees_where (fun tag -> tag = "inproceedings") dblp_like with
  | Error e -> Alcotest.fail (Format.asprintf "%a" Parser.pp_error e)
  | Ok trees ->
      checki "two matches" 2 (List.length trees);
      checkb "first rebuilt" true
        (Tree.equal (List.hd trees)
           (Tree.element ~attrs:[ ("key", "p1") ] "inproceedings"
              [ Tree.leaf "title" "A" ]))

let test_sax_limit () =
  match Sax.trees_where ~limit:1 (fun tag -> tag = "inproceedings") dblp_like with
  | Error e -> Alcotest.fail (Format.asprintf "%a" Parser.pp_error e)
  | Ok trees -> checki "stops at the limit" 1 (List.length trees)

let test_sax_errors () =
  (match Sax.trees_where (fun _ -> true) "<a><b></a>" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "mismatched tags accepted");
  match Sax.trees_where (fun _ -> true) "no xml here" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted"

let prop_sax_rebuilds_parser_trees =
  QCheck2.Test.make ~name:"trees_where on the root tag rebuilds the parsed tree"
    ~count:100 tree_gen (fun t ->
      let printed = Printer.to_string t in
      match t with
      | Tree.Text _ -> true
      | Tree.Element { tag = root_tag; _ } -> (
          match Sax.trees_where (fun tag -> tag = root_tag) printed with
          | Ok [ rebuilt ] -> Tree.equal rebuilt (parse printed)
          | _ -> false))

let () =
  Alcotest.run "toss_xml"
    [
      ( "tree",
        [
          Alcotest.test_case "basics" `Quick test_tree_basics;
          Alcotest.test_case "map and fold" `Quick test_tree_map_fold;
          Alcotest.test_case "structural equality" `Quick test_tree_equality;
        ] );
      ( "doc",
        [
          Alcotest.test_case "structure" `Quick test_doc_structure;
          Alcotest.test_case "ancestry" `Quick test_doc_ancestry;
          Alcotest.test_case "content and tags" `Quick test_doc_content_and_tags;
          Alcotest.test_case "subtree roundtrip" `Quick test_doc_subtree_roundtrip;
          Alcotest.test_case "rejects text root" `Quick test_doc_rejects_text_root;
          QCheck_alcotest.to_alcotest prop_doc_preorder_invariants;
        ] );
      ( "parser",
        [
          Alcotest.test_case "simple document" `Quick test_parse_simple;
          Alcotest.test_case "attributes" `Quick test_parse_attributes;
          Alcotest.test_case "entities" `Quick test_parse_entities;
          Alcotest.test_case "prolog, comments, cdata" `Quick
            test_parse_prolog_comments_cdata;
          Alcotest.test_case "whitespace" `Quick test_parse_whitespace_handling;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
      ( "printer",
        [
          Alcotest.test_case "escaping" `Quick test_print_escaping;
          Alcotest.test_case "roundtrip" `Quick test_print_parse_roundtrip;
          Alcotest.test_case "roundtrip edge cases" `Quick test_roundtrip_edge_cases;
          QCheck_alcotest.to_alcotest prop_nasty_roundtrip;
          Alcotest.test_case "byte size" `Quick test_byte_size;
          QCheck_alcotest.to_alcotest prop_print_parse_roundtrip;
        ] );
      ("types", [ Alcotest.test_case "inference" `Quick test_type_inference ]);
      ( "sax",
        [
          Alcotest.test_case "entities and cdata in events" `Quick test_sax_entities;
          Alcotest.test_case "trees_where" `Quick test_sax_trees_where;
          Alcotest.test_case "trees_where limit" `Quick test_sax_limit;
          Alcotest.test_case "errors" `Quick test_sax_errors;
          QCheck_alcotest.to_alcotest prop_sax_rebuilds_parser_trees;
        ] );
    ]
