(* The paper's Example 13: join DBLP against the SIGMOD proceedings pages,
   matching papers whose titles are similar -- even though the proceedings
   pages abbreviate title words and store the venue under a different tag
   and name.

   The same ground-truth corpus is rendered in both schemas, the Ontology
   Maker + fusion + SEA pipeline precomputes one similarity-enhanced
   ontology spanning both, and the TOSS executor evaluates the join
   pattern of Figure 14.

   Run with: dune exec examples/bibliography_join.exe *)

module Tree = Toss_xml.Tree
module Doc = Tree.Doc
module Collection = Toss_store.Collection
module Seo = Toss_core.Seo
module Executor = Toss_core.Executor
module Corpus = Toss_data.Corpus
module Dblp_gen = Toss_data.Dblp_gen
module Sigmod_gen = Toss_data.Sigmod_gen
module Workload = Toss_data.Workload

let () =
  (* One corpus, two renderings. *)
  let corpus = Corpus.generate ~seed:2026 ~n_papers:40 () in
  let dblp = Dblp_gen.render ~seed:2026 corpus in
  let sigmod = Sigmod_gen.render ~seed:2026 corpus in

  let left = Collection.create "dblp" in
  ignore (Collection.add_document left dblp.Dblp_gen.tree);
  let right = Collection.create "sigmod" in
  List.iter (fun t -> ignore (Collection.add_document right t)) sigmod.Sigmod_gen.trees;
  let left = Collection.snapshot left and right = Collection.snapshot right in

  Printf.printf "DBLP rendering:  %d papers in one document\n"
    (Array.length corpus.Corpus.papers);
  Printf.printf "SIGMOD rendering: %d proceedings pages\n\n"
    (List.length sigmod.Sigmod_gen.trees);

  (* Precompute the similarity-enhanced fused ontology across both
     sources (architecture components 1 and 2). *)
  let docs =
    Doc.of_tree dblp.Dblp_gen.tree :: List.map Doc.of_tree sigmod.Sigmod_gen.trees
  in
  let seo =
    match
      Seo.of_documents ~metric:Workload.experiment_metric ~eps:2.0
        ~content_tags:[ "booktitle"; "conference" ] docs
    with
    | Ok seo -> seo
    | Error msg -> failwith msg
  in

  (* Figure 14's pattern: inproceedings/title x article/title with the two
     titles similar. *)
  let pattern, sl = Workload.join_query () in

  let run mode label =
    let results, _ = Executor.join ~mode seo left right ~pattern ~sl in
    let pairs = Workload.result_key_pairs results in
    let correct = List.length (List.filter (fun (l, r) -> l = r) pairs) in
    Printf.printf "%-10s %3d joined pairs (%d correct)\n" label (List.length pairs) correct;
    pairs
  in
  let tax_pairs = run Executor.Tax "TAX" in
  let toss_pairs = run Executor.Toss "TOSS(2)" in

  (* Show a pair TAX missed: the proceedings page abbreviated the title. *)
  let missed = List.filter (fun p -> not (List.mem p tax_pairs)) toss_pairs in
  match missed with
  | (key, _) :: _ ->
      let paper = Option.get (Corpus.paper_by_key corpus key) in
      let page_title = List.assoc key sigmod.Sigmod_gen.title_strings in
      Printf.printf
        "\nexample of a pair only TOSS finds:\n  DBLP title:   %s\n  page title:   %s\n"
        paper.Corpus.title page_title
  | [] -> Printf.printf "\n(no TAX misses in this draw)\n"
