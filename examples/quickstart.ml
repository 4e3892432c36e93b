(* Quickstart: build a tiny bibliography, ask the same query through TAX
   and through TOSS, and see the recall difference.

   Run with: dune exec examples/quickstart.exe *)

module Printer = Toss_xml.Printer
module Session = Toss_core.Session
module Executor = Toss_core.Executor
module Workload = Toss_data.Workload

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
        <inproceedings key="u3">
          <author>Jeffrey Ullman</author>
          <title>Data Integration in Theory</title>
          <booktitle>VLDB</booktitle><year>2000</year>
        </inproceedings>
        <inproceedings key="w1">
          <author>Jennifer Widom</author>
          <title>Active Database Systems</title>
          <booktitle>ICML</booktitle><year>1999</year>
        </inproceedings>
      </dblp>|}

(* The query in TQL: an inproceedings (#1) with an author child (#2) and
   a booktitle child (#3); the author must be similar to "Jeffrey D.
   Ullman" and the venue must be a database conference. *)
let query =
  {|MATCH #1:inproceedings(/#2:author, /#3:booktitle)
    WHERE #2.content ~ "Jeffrey D. Ullman"
      AND #3.content isa "database conference"
    SELECT #1|}

let print_results label mode session =
  match Session.query ~mode session ~collection:"dblp" query with
  | Error msg -> failwith msg
  | Ok answer ->
      let results = answer.Session.trees in
      Printf.printf "\n%s: %d result(s)\n" label (List.length results);
      List.iter (fun t -> print_string (Printer.to_pretty_string t)) results

let () =
  (* A session stores the document and, on the first query, precomputes
     the similarity-enhanced ontology (Ontology Maker -> fusion -> SEA). *)
  let session = Session.create ~metric:Workload.experiment_metric ~eps:2.0 () in
  Session.add_document session ~collection:"dblp" db;

  (* TAX: exact match for ~, substring containment for isa. *)
  print_results "TAX" Executor.Tax session;

  (* TOSS: the same query through the ontology. *)
  print_results "TOSS (eps = 2)" Executor.Toss session;

  Printf.printf
    "\nTAX misses the initialized and middle-less spellings of the author\n\
     and every venue whose name does not literally contain the words\n\
     \"database conference\"; TOSS recovers them through the similarity-\n\
     enhanced ontology while correctly excluding Jennifer Widom's ICML paper.\n"
