(* The paper's introductory motivating example: "find all papers having at
   least one author from the US government". No author lists their
   affiliation as "US government" -- they write "US Census Bureau",
   "US Army", "NASA" and so on -- so TAX's literal matching finds nothing,
   while TOSS answers through the part-of hierarchy of its ontology.

   Run with: dune exec examples/government_authors.exe *)

module Tree = Toss_xml.Tree
module Session = Toss_core.Session
module Executor = Toss_core.Executor

let db =
  Toss_xml.Parser.parse_exn
    {|<dblp>
        <inproceedings key="g1">
          <author affiliation="US Census Bureau">Alice Carter</author>
          <title>Estimating Populations from Partial Counts</title>
          <booktitle>KDD</booktitle>
        </inproceedings>
        <inproceedings key="g2">
          <author affiliation="Stanford University">Bob Stone</author>
          <author affiliation="US Army">Carol Diaz</author>
          <title>Robust Route Planning</title>
          <booktitle>ICML</booktitle>
        </inproceedings>
        <inproceedings key="c1">
          <author affiliation="Google">Dan Fox</author>
          <title>Ranking at Scale</title>
          <booktitle>WWW</booktitle>
        </inproceedings>
        <inproceedings key="u1">
          <author affiliation="MIT">Eve Gray</author>
          <title>Streams and Windows</title>
          <booktitle>VLDB</booktitle>
        </inproceedings>
      </dblp>|}

(* Affiliations are element content in this variant of the data so the
   condition language can reach them. *)
let db =
  let rec lift = function
    | Tree.Element { tag = "author"; attrs; children } ->
        let affiliation = Option.value ~default:"" (List.assoc_opt "affiliation" attrs) in
        Tree.element "author"
          (children @ [ Tree.leaf "affiliation" affiliation ])
    | Tree.Element { tag; attrs; children } ->
        Tree.element ~attrs tag (List.map lift children)
    | t -> t
  in
  lift db

(* The query in TQL: a paper (#1) with an author (#2) whose affiliation
   (#3) is part of the US government. *)
let query =
  {|MATCH #1:inproceedings(/#2:author(/#3:affiliation))
    WHERE #3.content part_of "US government"
    SELECT #1|}

let titles results =
  List.filter_map
    (fun t ->
      Tree.fold
        (fun acc sub ->
          match (acc, sub) with
          | None, Tree.Element { tag = "title"; _ } -> Some (Tree.string_value sub)
          | acc, _ -> acc)
        None t)
    results

let () =
  (* The seeded lexicon knows the agency -> department -> government
     holonymy, and the Ontology Maker puts each affiliation string into
     the instance ontology when the session first queries. *)
  let session = Session.create ~eps:0.0 () in
  Session.add_document session ~collection:"dblp" db;
  let run mode =
    match Session.query ~mode session ~collection:"dblp" query with
    | Ok answer -> answer.Session.trees
    | Error msg -> failwith msg
  in
  (* TAX: part_of degrades to substring containment; "US Census Bureau"
     does not contain "US government", so nothing comes back. *)
  let tax = run Executor.Tax in
  Printf.printf "TAX finds %d paper(s)\n" (List.length tax);

  (* TOSS: the same query through the part-of hierarchy. *)
  let toss = run Executor.Toss in
  Printf.printf "TOSS finds %d paper(s):\n" (List.length toss);
  List.iter (fun t -> Printf.printf "  - %s\n" t) (titles toss);
  Printf.printf
    "\nThe Google, MIT and Stanford-only papers are correctly excluded;\n\
     the Census Bureau and Army papers are found through part-of reasoning.\n"
