(* Tests for the ground-truth corpus, the two schema renderers, the name
   variant machinery and the experiment workload. *)

module Tree = Toss_xml.Tree
module Doc = Tree.Doc
module Printer = Toss_xml.Printer
module Parser = Toss_xml.Parser
module Names = Toss_data.Names
module Variant = Toss_data.Variant
module Titles = Toss_data.Titles
module Corpus = Toss_data.Corpus
module Dblp_gen = Toss_data.Dblp_gen
module Sigmod_gen = Toss_data.Sigmod_gen
module Workload = Toss_data.Workload
module Metric = Toss_similarity.Metric

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let corpus = Corpus.generate ~seed:42 ~n_papers:60 ()

(* ------------------------------------------------------------------ *)
(* Names and variants                                                   *)
(* ------------------------------------------------------------------ *)

let test_names_fresh_deterministic () =
  let rng1 = Random.State.make [| 1 |] and rng2 = Random.State.make [| 1 |] in
  checkb "same seed same person" true
    (Names.fresh rng1 = Names.fresh rng2)

let test_names_full () =
  checks "with middle" "Ada B Lovelace"
    (Names.full { Names.first = "Ada"; middle = Some "B"; last = "Lovelace" });
  checks "without middle" "Ada Lovelace"
    (Names.full { Names.first = "Ada"; middle = None; last = "Lovelace" })

let person = { Names.first = "Jeffrey"; middle = Some "David"; last = "Ullman" }
let no_middle = { Names.first = "Gian"; middle = Some "Luigi"; last = "Ferrari" }

let test_variant_render () =
  checks "full" "Jeffrey David Ullman" (Variant.render person Variant.Full);
  checks "first initial" "J. D. Ullman" (Variant.render person Variant.First_initial);
  checks "drop middle" "Jeffrey Ullman" (Variant.render person Variant.Drop_middle);
  checks "concat" "GianLuigi Ferrari" (Variant.render no_middle Variant.Concat);
  checkb "typo changes the string" true
    (Variant.render person (Variant.Typo 1) <> Names.full person)

let test_variant_distances_within_rules () =
  (* The renderings stratify around the paper's thresholds: dropped
     middles and single typos are within eps = 2, double initials and
     double typos fall in (2, 3]. *)
  let canonical = Variant.render person Variant.Full in
  let d s = Toss_similarity.Name_rules.distance canonical s in
  checkb "drop middle within 2" true (d (Variant.render person Variant.Drop_middle) <= 2.);
  checkb "single typo within 2" true (d (Variant.render person (Variant.Typo 1)) <= 2.);
  let initials = d (Variant.render person Variant.First_initial) in
  checkb "double initials beyond 2" true (initials > 2.);
  checkb "double initials within 3" true (initials <= 3.);
  let t2 = d (Variant.render person (Variant.Typo 2)) in
  checkb "two typos beyond 2" true (t2 > 2.);
  checkb "two typos within 3" true (t2 <= 3.3)

let test_random_typo_valid () =
  let rng = Random.State.make [| 9 |] in
  for _ = 1 to 50 do
    let s = Variant.random_typo rng "Jeffrey Ullman" in
    checkb "non-empty" true (String.length s > 0);
    checkb "first char preserved" true (s.[0] = 'J')
  done

(* ------------------------------------------------------------------ *)
(* Titles                                                               *)
(* ------------------------------------------------------------------ *)

let test_titles () =
  let rng = Random.State.make [| 3 |] in
  let t1 = Titles.generate rng 7 in
  checkb "serial embedded" true
    (let needle = "[P0007]" in
     let nh = String.length t1 and nn = String.length needle in
     let rec go i = i + nn <= nh && (String.sub t1 i nn = needle || go (i + 1)) in
     go 0);
  checkb "topic recognized" true (Titles.topic_of t1 <> None);
  let abbreviated = Titles.abbreviate "Efficient Query Processing" in
  checks "abbreviation applied" "Eff. Query Proc." abbreviated;
  checks "no-op on plain words" "Some Words" (Titles.abbreviate "Some Words")

(* ------------------------------------------------------------------ *)
(* Corpus                                                               *)
(* ------------------------------------------------------------------ *)

let test_corpus_shape () =
  checki "paper count" 60 (Array.length corpus.Corpus.papers);
  checkb "authors default" true (Array.length corpus.Corpus.authors >= 20);
  Array.iter
    (fun (p : Corpus.paper) ->
      checkb "authors non-empty" true (p.Corpus.author_ids <> []);
      checkb "venue in range" true
        (p.Corpus.venue_id >= 0 && p.Corpus.venue_id < Array.length corpus.Corpus.venues);
      checkb "year range" true (p.Corpus.year >= 1994 && p.Corpus.year <= 2003);
      checkb "pages ordered" true (fst p.Corpus.pages < snd p.Corpus.pages))
    corpus.Corpus.papers

let test_corpus_deterministic () =
  let again = Corpus.generate ~seed:42 ~n_papers:60 () in
  checkb "same papers" true (corpus.Corpus.papers = again.Corpus.papers);
  let different = Corpus.generate ~seed:43 ~n_papers:60 () in
  checkb "seed changes content" false (corpus.Corpus.papers = different.Corpus.papers)

let test_corpus_unique_author_names () =
  let names =
    Array.to_list corpus.Corpus.authors
    |> List.map (fun (a : Corpus.author) -> Names.full a.Corpus.person)
  in
  checki "canonical names unique" (List.length names)
    (List.length (List.sort_uniq String.compare names))

let test_corpus_lookups () =
  let p = corpus.Corpus.papers.(0) in
  checkb "paper_by_key" true (Corpus.paper_by_key corpus p.Corpus.key = Some p);
  checkb "unknown key" true (Corpus.paper_by_key corpus "nope" = None);
  let author0 = List.hd p.Corpus.author_ids in
  checkb "papers_by_author includes it" true
    (List.memq p (Corpus.papers_by_author corpus author0))

(* ------------------------------------------------------------------ *)
(* Renderers                                                            *)
(* ------------------------------------------------------------------ *)

let dblp = Dblp_gen.render ~seed:1 corpus
let sigmod = Sigmod_gen.render ~seed:1 corpus

let test_dblp_render_structure () =
  let doc = Doc.of_tree dblp.Dblp_gen.tree in
  checki "one entry per paper" 60 (List.length (Doc.by_tag doc "inproceedings"));
  checkb "root is dblp" true (Doc.tag doc 0 = "dblp");
  (* Every entry carries its corpus key. *)
  List.iter
    (fun n ->
      match List.assoc_opt "key" (Doc.attrs doc n) with
      | Some key -> checkb ("known key " ^ key) true (Corpus.paper_by_key corpus key <> None)
      | None -> Alcotest.fail "inproceedings without key")
    (Doc.by_tag doc "inproceedings")

let test_dblp_parse_roundtrip () =
  let xml = Printer.to_string dblp.Dblp_gen.tree in
  checkb "serialized form parses back" true
    (Tree.equal (Parser.parse_exn xml) dblp.Dblp_gen.tree)

let test_dblp_author_strings_recorded () =
  checkb "every paper-author pair recorded" true
    (List.length dblp.Dblp_gen.author_strings
    = Array.fold_left
        (fun n (p : Corpus.paper) -> n + List.length p.Corpus.author_ids)
        0 corpus.Corpus.papers);
  (* The canonical Full rendering is the single most common style. *)
  let canonical =
    List.filter
      (fun (_, aid, s) ->
        s = Variant.render (Corpus.author corpus aid).Corpus.person Variant.Full)
      dblp.Dblp_gen.author_strings
  in
  checkb "canonical rendering is the plurality" true
    (3 * List.length canonical > List.length dblp.Dblp_gen.author_strings)

let test_sigmod_render_structure () =
  checkb "one page per venue-year group" true (List.length sigmod.Sigmod_gen.trees > 5);
  let total_articles =
    List.fold_left
      (fun n tree -> n + List.length (Doc.by_tag (Doc.of_tree tree) "article"))
      0 sigmod.Sigmod_gen.trees
  in
  checki "every paper on some page" 60 total_articles;
  (* Pages carry the venue's full name, not the DBLP abbreviation. *)
  let first = Doc.of_tree (List.hd sigmod.Sigmod_gen.trees) in
  let conf = Doc.content first (List.hd (Doc.by_tag first "conference")) in
  checkb "full venue name used" true
    (Array.exists (fun (v : Corpus.venue) -> v.Corpus.full_name = conf) corpus.Corpus.venues)

let test_sigmod_venue_filter () =
  let only_sigmod = Sigmod_gen.render ~seed:1 ~venue_ids:[ 0 ] corpus in
  List.iter
    (fun tree ->
      let d = Doc.of_tree tree in
      let conf = Doc.content d (List.hd (Doc.by_tag d "conference")) in
      checks "only venue 0" corpus.Corpus.venues.(0).Corpus.full_name conf)
    only_sigmod.Sigmod_gen.trees

let test_sigmod_initials_dominate () =
  let initials =
    List.filter
      (fun (_, aid, s) ->
        s = Variant.render (Corpus.author corpus aid).Corpus.person Variant.First_initial)
      sigmod.Sigmod_gen.author_strings
  in
  checkb "majority initialized" true
    (2 * List.length initials > List.length sigmod.Sigmod_gen.author_strings)

(* ------------------------------------------------------------------ *)
(* Workload                                                             *)
(* ------------------------------------------------------------------ *)

let test_experiment_metric () =
  let d = Metric.dist Workload.experiment_metric in
  checkb "identity" true (d "x" "x" = 0.);
  checkb "name variant close" true (d "J. Ullman" "Jeffrey Ullman" <= 2.);
  checkb "abbreviated title close" true
    (d "Efficient Query Processing" "Eff. Query Proc." <= 2.);
  checkb "venue acronyms stay apart" true (d "KDD" "ICDE" > 3.);
  checkb "phrase vs head noun apart" true (d "web conference" "conference" > 3.)

let test_selection_queries () =
  let queries = Workload.selection_queries corpus in
  checki "twelve by default" 12 (List.length queries);
  List.iter
    (fun (q : Workload.query) ->
      checkb "correct answers non-empty" true (q.Workload.correct <> []);
      (* Exactly 3 tag conditions, 1 similarTo, 1 isa. *)
      let atoms = Toss_tax.Condition.atoms q.Workload.pattern.Toss_tax.Pattern.condition in
      let count p = List.length (List.filter p atoms) in
      checki "three tag conditions" 3
        (count (function
          | Toss_tax.Condition.Cmp (Toss_tax.Condition.Tag _, _, _) -> true
          | _ -> false));
      checki "one similarTo" 1
        (count (function Toss_tax.Condition.Sim _ -> true | _ -> false));
      checki "one isa" 1
        (count (function Toss_tax.Condition.Isa _ -> true | _ -> false)))
    queries

let test_result_keys () =
  let t1 = Tree.element ~attrs:[ ("key", "p1") ] "inproceedings" [] in
  let t2 = Tree.element "wrapper" [ Tree.element ~attrs:[ ("key", "p2") ] "x" [] ] in
  Alcotest.(check (list string)) "keys collected" [ "p1"; "p2" ]
    (Workload.result_keys [ t1; t2; t1 ]);
  let join_result =
    Tree.element "tax_prod_root"
      [
        Tree.element ~attrs:[ ("key", "l") ] "a" [];
        Tree.element ~attrs:[ ("key", "r") ] "b" [];
      ]
  in
  Alcotest.(check (list (pair string string))) "pairs" [ ("l", "r") ]
    (Workload.result_key_pairs [ join_result ])

let test_join_query_shape () =
  let pattern, sl = Workload.join_query () in
  checki "five labels" 5 (List.length (Toss_tax.Pattern.labels pattern));
  Alcotest.(check (list int)) "sl returns both papers" [ 1; 3 ] sl;
  let atoms = Toss_tax.Condition.atoms pattern.Toss_tax.Pattern.condition in
  checki "five tag + one sim" 6 (List.length atoms)

let () =
  Alcotest.run "toss_data"
    [
      ( "names and variants",
        [
          Alcotest.test_case "deterministic drawing" `Quick test_names_fresh_deterministic;
          Alcotest.test_case "full rendering" `Quick test_names_full;
          Alcotest.test_case "variant rendering" `Quick test_variant_render;
          Alcotest.test_case "variant distances" `Quick test_variant_distances_within_rules;
          Alcotest.test_case "random typos valid" `Quick test_random_typo_valid;
          Alcotest.test_case "titles" `Quick test_titles;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "shape invariants" `Quick test_corpus_shape;
          Alcotest.test_case "deterministic" `Quick test_corpus_deterministic;
          Alcotest.test_case "unique canonical names" `Quick test_corpus_unique_author_names;
          Alcotest.test_case "ground-truth lookups" `Quick test_corpus_lookups;
        ] );
      ( "renderers",
        [
          Alcotest.test_case "dblp structure" `Quick test_dblp_render_structure;
          Alcotest.test_case "dblp xml roundtrip" `Quick test_dblp_parse_roundtrip;
          Alcotest.test_case "dblp author strings" `Quick test_dblp_author_strings_recorded;
          Alcotest.test_case "sigmod structure" `Quick test_sigmod_render_structure;
          Alcotest.test_case "sigmod venue filter" `Quick test_sigmod_venue_filter;
          Alcotest.test_case "sigmod initials dominate" `Quick test_sigmod_initials_dominate;
        ] );
      ( "workload",
        [
          Alcotest.test_case "experiment metric calibration" `Quick test_experiment_metric;
          Alcotest.test_case "selection queries" `Quick test_selection_queries;
          Alcotest.test_case "result keys" `Quick test_result_keys;
          Alcotest.test_case "join query shape" `Quick test_join_query_shape;
        ] );
    ]
