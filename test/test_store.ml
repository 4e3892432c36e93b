(* Tests for the Xindice-substitute store: XPath AST/parser/evaluation,
   value indexes, collections and the database facade. *)

module Tree = Toss_xml.Tree
module Doc = Tree.Doc
module Parser = Toss_xml.Parser
module Xpath = Toss_store.Xpath
module Xpath_parser = Toss_store.Xpath_parser
module Index = Toss_store.Index
module Collection = Toss_store.Collection
module Database = Toss_store.Database

let eval_string ?use_index c q = Collection.eval ?use_index c (Xpath_parser.parse_exn q)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)
let check_il = Alcotest.(check (list int))

let doc =
  Doc.of_tree
    (Parser.parse_exn
       {|<dblp>
           <inproceedings key="p1">
             <author>Jeff Ullman</author>
             <title>Principles of DB</title>
             <booktitle>PODS</booktitle>
             <year>1998</year>
           </inproceedings>
           <inproceedings key="p2">
             <author>Jennifer Widom</author>
             <author>Jeff Ullman</author>
             <title>Active DB</title>
             <booktitle>SIGMOD Conference</booktitle>
             <year>1999</year>
           </inproceedings>
           <article key="p3">
             <author>Serge Abiteboul</author>
             <title>Views</title>
           </article>
         </dblp>|})

let eval s = Xpath.eval doc (Xpath_parser.parse_exn s)
let tags_of nodes = List.map (Doc.tag doc) nodes

(* ------------------------------------------------------------------ *)
(* XPath evaluation                                                     *)
(* ------------------------------------------------------------------ *)

let test_descendant_axis () =
  checki "all authors" 4 (List.length (eval "//author"));
  checki "root selected by //dblp" 1 (List.length (eval "//dblp"));
  checki "wildcard counts all elements" (Doc.size doc) (List.length (eval "//*"))

let test_child_axis () =
  checki "direct children" 2 (List.length (eval "/dblp/inproceedings"));
  checki "absolute path to authors" 3 (List.length (eval "/dblp/inproceedings/author"));
  checki "wrong root" 0 (List.length (eval "/nope/inproceedings"))

let test_mixed_axes () =
  checki "descendant after child" 3 (List.length (eval "/dblp//inproceedings//author"));
  Alcotest.(check (list string)) "tags" [ "author"; "author"; "author" ]
    (tags_of (eval "/dblp//inproceedings//author"))

let test_predicates_content () =
  checki "exact content" 1 (List.length (eval "//author[.='Jennifer Widom']"));
  checki "contains" 2 (List.length (eval "//title[contains(.,'DB')]"));
  checki "child equality" 1
    (List.length (eval "//inproceedings[booktitle='PODS']"));
  checki "child contains" 1
    (List.length (eval "//inproceedings[contains(booktitle,'SIGMOD')]"));
  checki "existence test" 2 (List.length (eval "//inproceedings[year]"));
  checki "attribute" 1 (List.length (eval "//inproceedings[@key='p2']"))

let test_predicates_boolean () =
  checki "and" 1
    (List.length (eval "//inproceedings[booktitle='PODS' and year='1998']"));
  checki "or" 2
    (List.length (eval "//inproceedings[booktitle='PODS' or booktitle='SIGMOD Conference']"));
  checki "not" 1 (List.length (eval "//inproceedings[not(booktitle='PODS')]"));
  checki "nested parens" 2
    (List.length (eval "//inproceedings[(booktitle='PODS' or year='1999') and author]"))

let test_position_predicate () =
  let nodes = eval "//inproceedings[1]" in
  checki "first only" 1 (List.length nodes);
  checks "is p1" "p1" (List.assoc "key" (Doc.attrs doc (List.hd nodes)));
  checki "out of range" 0 (List.length (eval "//article[5]"))

let test_union () =
  checki "union" 3 (List.length (eval "//inproceedings | //article"));
  checki "overlapping union dedups" 2 (List.length (eval "//article | //article/author | //article//author"))

let test_xpath_to_string_roundtrip () =
  let queries =
    [
      "//author";
      "/dblp/inproceedings[booktitle='PODS']/title";
      "//inproceedings[contains(title,'DB')][year='1998']";
      "//a[.='x'][2] | //b[@k='v']";
      "//x[not((a='1' and b='2'))]";
    ]
  in
  List.iter
    (fun q ->
      let ast = Xpath_parser.parse_exn q in
      let printed = Xpath.to_string ast in
      let reparsed = Xpath_parser.parse_exn printed in
      checkb (Printf.sprintf "roundtrip %s" q) true (ast = reparsed))
    queries

let test_xpath_edge_cases () =
  (* Nested elements with the same tag: // must reach all of them. *)
  let nested = Doc.of_tree (Parser.parse_exn "<a><a><a>x</a></a></a>") in
  checki "self-similar nesting" 3 (List.length (Xpath.eval nested (Xpath_parser.parse_exn "//a")));
  checki "child chain" 1 (List.length (Xpath.eval nested (Xpath_parser.parse_exn "/a/a/a")));
  (* Predicates on the root step. *)
  checki "root predicate hit" 1
    (List.length (eval "//dblp[inproceedings]"));
  checki "root predicate miss" 0 (List.length (eval "//dblp[nothing]"));
  (* Wildcards mid-path. *)
  checki "wildcard step" 4 (List.length (eval "/dblp/*/author"));
  (* Content equality against an inner node's string-value. *)
  checki "string-value of inner node" 1
    (List.length (eval "//article[.='Serge AbiteboulViews']"))

let test_xpath_empty_contains () =
  (* contains with the empty needle is vacuously true. *)
  checki "empty needle matches everything" 3
    (List.length (eval "//title[contains(.,'')]"))

let test_xpath_parse_errors () =
  List.iter
    (fun q ->
      match Xpath_parser.parse q with
      | Ok _ -> Alcotest.fail ("expected parse failure: " ^ q)
      | Error _ -> ())
    [ ""; "author"; "//a["; "//a[']"; "//a]"; "//a | "; "//a[foo=bar]" ]

(* ------------------------------------------------------------------ *)
(* Index                                                                *)
(* ------------------------------------------------------------------ *)

let test_index_eq_lookup () =
  let idx = Index.build doc in
  checki "exact author" 2 (Index.eq_count idx ~tag:"author" ~value:"Jeff Ullman");
  checki "no match" 0 (Index.eq_count idx ~tag:"author" ~value:"Nobody");
  checki "wrong tag" 0 (Index.eq_count idx ~tag:"title" ~value:"Jeff Ullman")

(* ------------------------------------------------------------------ *)
(* Collection                                                           *)
(* ------------------------------------------------------------------ *)

let small_doc_a = Parser.parse_exn "<r><a>1</a><b>2</b></r>"
let small_doc_b = Parser.parse_exn "<r><a>3</a></r>"

let make_collection () =
  let c = Collection.create "test" in
  let id0 = Collection.add_document c small_doc_a in
  let id1 = Collection.add_document c small_doc_b in
  (c, id0, id1)

let test_collection_basics () =
  let c, id0, id1 = make_collection () in
  check_il "two documents" [ 0; 1 ] (Collection.doc_ids c);
  checkb "doc roundtrip" true (Tree.equal (Doc.to_tree (Collection.doc c id0)) small_doc_a);
  checkb "second doc" true (Tree.equal (Doc.to_tree (Collection.doc c id1)) small_doc_b);
  checks "name" "test" (Collection.name c)

let test_collection_eval () =
  let c, _, _ = make_collection () in
  let hits = eval_string c "//a" in
  checki "a in both docs" 2 (List.length hits);
  Alcotest.(check (list int)) "doc ids in order" [ 0; 1 ] (List.map fst hits);
  let hits = eval_string c "//a[.='3']" in
  checki "filtered to one doc" 1 (List.length hits);
  checki "that doc is 1" 1 (fst (List.hd hits))

let test_collection_eval_index_agrees () =
  (* The indexed fast path must return exactly what the naive evaluator
     returns, on a variety of queries. *)
  let c, _, _ = make_collection () in
  let big = Collection.create "big" in
  ignore
    (Collection.add_document big
       (Parser.parse_exn
          "<x><y><a>1</a><a>2</a></y><z><a>1</a><b><a>3</a></b></z></x>"));
  List.iter
    (fun (coll : Collection.t) ->
      List.iter
        (fun q ->
          let with_index = eval_string ~use_index:true coll q in
          let without = eval_string ~use_index:false coll q in
          checkb (Printf.sprintf "index agreement on %s" q) true (with_index = without))
        [ "//a"; "//a[.='1']"; "//y/a"; "//z//a"; "//a[2]"; "/x/z/b/a"; "//q" ])
    [ c; big ]

let test_collection_size_limit () =
  let c = Collection.create ~max_bytes:20 "tiny" in
  ignore (Collection.add_document c small_doc_b);
  Alcotest.check_raises "xindice-style limit"
    (Collection.Collection_full { name = "tiny"; limit = 20 }) (fun () ->
      ignore (Collection.add_document c small_doc_a))

let test_collection_add_xml () =
  let c = Collection.create "xml" in
  (match Collection.add_xml c "<a><b>x</b></a>" with
  | Ok id -> checki "id assigned" 0 id
  | Error _ -> Alcotest.fail "valid xml rejected");
  match Collection.add_xml c "<a><b></a>" with
  | Ok _ -> Alcotest.fail "invalid xml accepted"
  | Error _ -> check_il "count unchanged" [ 0 ] (Collection.doc_ids c)

let test_collection_eq_lookup_and_subtrees () =
  let c, _, _ = make_collection () in
  let hits = eval_string c "//a[.='1']" in
  checki "eq hit" 1 (List.length hits);
  let trees = Collection.subtrees c hits in
  checkb "subtree materialized" true (Tree.equal (List.hd trees) (Tree.leaf "a" "1"))

let test_snapshot_since () =
  (* A suffix view reads the documents inserted after a version: same
     version and ids, and every read — statistics too — over just those
     documents, equal to the same read's part over the whole snapshot. *)
  let c, _, _ = make_collection () in
  ignore (Collection.add_document c small_doc_a);
  let snap = Collection.snapshot c in
  let since = Collection.Snapshot.since snap 1 in
  let q = Xpath_parser.parse_exn "//a" in
  checki "same version" (Collection.Snapshot.version snap) (Collection.Snapshot.version since);
  checki "first id" 1 (Collection.Snapshot.first since);
  check_il "the later ids" [ 1; 2 ] (Collection.Snapshot.doc_ids since);
  checki "their count" 2 (Collection.Snapshot.n_documents since);
  checkb "the suffix of the whole snapshot's answer" true
    (Collection.Snapshot.eval since q
    = List.filter (fun (id, _) -> id >= 1) (Collection.Snapshot.eval snap q));
  checkb "statistics over the suffix" true
    (Collection.Snapshot.estimate_rows since q
    < Collection.Snapshot.estimate_rows snap q);
  Alcotest.check_raises "an earlier id is not in the view" Not_found (fun () ->
      ignore (Collection.Snapshot.doc since 0));
  check_il "past the end: empty" [] (Collection.Snapshot.doc_ids (Collection.Snapshot.since snap 9));
  checkb "since 0 is the snapshot" true (Collection.Snapshot.since snap 0 == snap)

(* ------------------------------------------------------------------ *)
(* Database                                                             *)
(* ------------------------------------------------------------------ *)

let test_database () =
  let db = Database.create () in
  let c = Database.create_collection db "dblp" in
  ignore (Collection.add_document c small_doc_a);
  checkb "lookup" true (Database.collection db "dblp" <> None);
  checkb "missing" true (Database.collection db "nope" = None);
  Alcotest.(check (list string)) "names" [ "dblp" ] (Database.collection_names db);
  Alcotest.check_raises "duplicate name"
    (Invalid_argument "Database.create_collection: \"dblp\" already exists") (fun () ->
      ignore (Database.create_collection db "dblp"))

(* ------------------------------------------------------------------ *)
(* Persistence                                                          *)
(* ------------------------------------------------------------------ *)

module Persist = Toss_store.Persist

let temp_dir () =
  let dir = Filename.temp_file "toss_store" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  dir

(* The serving path's durable layout: [append_document] writes one file
   per insert, [load_database] reads the directory back at hydration. *)
let append_all ~dir ~collection c =
  List.iter
    (fun id ->
      Persist.append_document ~dir ~collection id (Doc.to_tree (Collection.doc c id)))
    (Collection.doc_ids c)

let reload dir =
  match Persist.load_database ~dir with
  | Ok db -> db
  | Error msg -> Alcotest.fail msg

let check_same_docs label c c' =
  check_il (label ^ ": document ids") (Collection.doc_ids c) (Collection.doc_ids c');
  List.iter
    (fun id ->
      checkb
        (Printf.sprintf "%s: document %d round-trips" label id)
        true
        (Tree.equal (Doc.to_tree (Collection.doc c id)) (Doc.to_tree (Collection.doc c' id))))
    (Collection.doc_ids c)

let test_persist_collection () =
  let c, _, _ = make_collection () in
  let dir = temp_dir () in
  append_all ~dir ~collection:"reloaded" c;
  let c' = Database.collection_exn (reload dir) "reloaded" in
  check_same_docs "collection" c c';
  checks "name taken from the directory" "reloaded" (Collection.name c')

let test_persist_database () =
  let db = Database.create () in
  let c1 = Database.create_collection db "alpha" in
  ignore (Collection.add_document c1 small_doc_a);
  let c2 = Database.create_collection db "beta" in
  ignore (Collection.add_document c2 small_doc_b);
  ignore (Collection.add_document c2 small_doc_a);
  let dir = temp_dir () in
  append_all ~dir ~collection:"beta" c2;
  append_all ~dir ~collection:"alpha" c1;
  let db' = reload dir in
  Alcotest.(check (list string)) "collections survive" [ "alpha"; "beta" ]
    (Database.collection_names db');
  let beta = Database.collection_exn db' "beta" in
  check_il "beta has two docs" [ 0; 1 ] (Collection.doc_ids beta);
  checki "query works after reload" 2 (List.length (eval_string beta "//a"))

(* Content that exercises every XML-escaping path: markup characters in
   text and attributes, quotes, whitespace-significant text. The
   append/load round-trip must preserve the trees exactly — the server's
   durable inserts are [append_document] files re-parsed at hydration. *)
let test_persist_escaping_roundtrip () =
  let nasty =
    [
      "<doc a=\"5 &lt; 6 &amp; 7 &gt; 2\"><t>a &lt; b &amp;&amp; c &gt; d</t></doc>";
      "<doc q=\"say &quot;hi&quot; &apos;there&apos;\"><t>\"mixed' quotes</t></doc>";
      "<doc><pre>  spaced   text  </pre><t>tab\there</t></doc>";
      "<doc><t>brackets ]]&gt; and entities &amp;amp; survive</t></doc>";
    ]
  in
  let c = Collection.create "nasty" in
  List.iter (fun xml -> ignore (Collection.add_xml c xml)) nasty;
  checki "all docs stored" (List.length nasty) (List.length (Collection.doc_ids c));
  let dir = temp_dir () in
  append_all ~dir ~collection:"nasty" c;
  check_same_docs "escaping" c (Database.collection_exn (reload dir) "nasty")

(* A broken database reports every unloadable file, not just the
   first. *)
let test_persist_aggregated_errors () =
  let dir = temp_dir () in
  let write path content =
    let oc = open_out path in
    output_string oc content;
    close_out oc
  in
  Sys.mkdir (Filename.concat dir "good") 0o755;
  write (Filename.concat dir "good/000000.xml") "<ok/>";
  Sys.mkdir (Filename.concat dir "bad") 0o755;
  write (Filename.concat dir "bad/000000.xml") "<broken>";
  write (Filename.concat dir "bad/000001.xml") "also not xml";
  Sys.mkdir (Filename.concat dir "worse") 0o755;
  write (Filename.concat dir "worse/000000.xml") "<nope";
  match Persist.load_database ~dir with
  | Ok _ -> Alcotest.fail "expected load errors"
  | Error msg ->
      let contains hay needle =
        let nl = String.length needle and hl = String.length hay in
        let rec go i =
          i + nl <= hl && (String.sub hay i nl = needle || go (i + 1))
        in
        go 0
      in
      (* both files of [bad] and the one of [worse] are all reported *)
      List.iter
        (fun file ->
          checkb (Printf.sprintf "error mentions %s" file) true
            (contains msg file))
        [ "bad/000000.xml"; "bad/000001.xml"; "worse/000000.xml" ]

let test_persist_errors () =
  (match Persist.load_database ~dir:"/nonexistent/path" with
  | Ok _ -> Alcotest.fail "expected an error for a missing directory"
  | Error _ -> ());
  (* A malformed file is reported with its path. *)
  let dir = temp_dir () in
  Sys.mkdir (Filename.concat dir "x") 0o755;
  let oc = open_out (Filename.concat dir "x/000000.xml") in
  output_string oc "<broken>";
  close_out oc;
  match Persist.load_database ~dir with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error msg ->
      let path = Filename.concat dir "x/000000.xml" in
      checkb "path mentioned" true
        (String.length msg >= String.length path
        && String.sub msg 0 (String.length path) = path)

let () =
  Alcotest.run "toss_store"
    [
      ( "xpath eval",
        [
          Alcotest.test_case "descendant axis" `Quick test_descendant_axis;
          Alcotest.test_case "child axis" `Quick test_child_axis;
          Alcotest.test_case "mixed axes" `Quick test_mixed_axes;
          Alcotest.test_case "content predicates" `Quick test_predicates_content;
          Alcotest.test_case "boolean predicates" `Quick test_predicates_boolean;
          Alcotest.test_case "positional predicates" `Quick test_position_predicate;
          Alcotest.test_case "union queries" `Quick test_union;
        ] );
      ( "xpath syntax",
        [
          Alcotest.test_case "print/parse roundtrip" `Quick test_xpath_to_string_roundtrip;
          Alcotest.test_case "edge cases" `Quick test_xpath_edge_cases;
          Alcotest.test_case "empty contains" `Quick test_xpath_empty_contains;
          Alcotest.test_case "parse errors" `Quick test_xpath_parse_errors;
        ] );
      ( "index",
        [
          Alcotest.test_case "equality lookup" `Quick test_index_eq_lookup;
        ] );
      ( "collection",
        [
          Alcotest.test_case "basics" `Quick test_collection_basics;
          Alcotest.test_case "evaluation" `Quick test_collection_eval;
          Alcotest.test_case "indexed eval agrees with naive" `Quick
            test_collection_eval_index_agrees;
          Alcotest.test_case "xindice size limit" `Quick test_collection_size_limit;
          Alcotest.test_case "insert from xml" `Quick test_collection_add_xml;
          Alcotest.test_case "eq lookup and subtrees" `Quick
            test_collection_eq_lookup_and_subtrees;
          Alcotest.test_case "snapshot since a version" `Quick test_snapshot_since;
        ] );
      ("database", [ Alcotest.test_case "facade" `Quick test_database ]);
      ( "persistence",
        [
          Alcotest.test_case "collection roundtrip" `Quick test_persist_collection;
          Alcotest.test_case "database roundtrip" `Quick test_persist_database;
          Alcotest.test_case "load errors" `Quick test_persist_errors;
          Alcotest.test_case "escaping content roundtrip" `Quick
            test_persist_escaping_roundtrip;
          Alcotest.test_case "aggregated load errors" `Quick
            test_persist_aggregated_errors;
        ] );
    ]
