(* The experiment harness: regenerates every table and figure of the
   paper's Section 6, plus the ablations called out in DESIGN.md.

     dune exec bench/main.exe                 -- run everything
     dune exec bench/main.exe -- fig15a fig16c  -- run a subset

   Experiments: fig15a fig15b fig15c fig16a fig16b fig16c
                abl-sea abl-fuse abl-idx abl-plan abl-compile abl-simjoin
                serve-cache serve-parallel micro

   Absolute times differ from the paper (their substrate was Xindice on a
   1.4 GHz Windows 2000 PC); the shapes -- who wins, by what factor, and
   the growth trends -- are the reproduction target. See EXPERIMENTS.md. *)

module Tree = Toss_xml.Tree
module Doc = Tree.Doc
module Printer = Toss_xml.Printer
module Collection = Toss_store.Collection
module Hierarchy = Toss_hierarchy.Hierarchy
module Lexicon = Toss_ontology.Lexicon
module Fusion = Toss_ontology.Fusion
module Maker = Toss_ontology.Maker
module Interop = Toss_ontology.Interop
module Ontology = Toss_ontology.Ontology
module Sea = Toss_similarity.Sea
module Levenshtein = Toss_similarity.Levenshtein
module Seo = Toss_core.Seo
module Executor = Toss_core.Executor
module Pattern = Toss_tax.Pattern
module Condition = Toss_tax.Condition
module Corpus = Toss_data.Corpus
module Dblp_gen = Toss_data.Dblp_gen
module Sigmod_gen = Toss_data.Sigmod_gen
module Workload = Toss_data.Workload
module Quality = Toss_eval.Quality
module Rewrite = Toss_core.Rewrite
module Simjoin = Toss_core.Simjoin
module Planner = Toss_core.Planner
module Plan = Toss_core.Plan
module Toss_condition = Toss_core.Toss_condition
module Engine = Toss_server.Engine
module Protocol = Toss_server.Protocol
module Server = Toss_server.Server
module Transport = Toss_server.Transport
module Client = Toss_server.Client
module Shard_map = Toss_shard.Shard_map
module Router = Toss_shard.Router
module Loadgen = Toss_shard.Loadgen
module B = Toss_eval.Bench_util

let metric = Workload.experiment_metric

(* Every experiment also persists its table as CSV + gnuplot under this
   directory, so figures can be re-plotted from a run's artifacts. *)
let results_dir = "bench_results"

(* Each experiment's JSON artifact embeds the metrics accumulated since
   the previous [emit], so a row's timings come with the index hit rates,
   rewrite fan-outs and embedding counts that explain them; the registry
   is then reset to scope the next experiment's snapshot. *)
let emit name ~columns rows =
  B.print_table ~columns rows;
  let series = Toss_eval.Series.v ~name ~columns rows in
  let metrics = Toss_obs.Metrics.to_json (Toss_obs.Metrics.snapshot ()) in
  let paths = Toss_eval.Series.save_all ~dir:results_dir ~metrics [ series ] in
  Toss_obs.Metrics.reset ();
  Printf.printf "(artifacts: %s)\n" (String.concat ", " paths)

(* ------------------------------------------------------------------ *)
(* Shared data preparation                                              *)
(* ------------------------------------------------------------------ *)

(* Bench collections are write-once: build, then hand the executor an
   immutable snapshot (the only form it accepts since the MVCC split). *)
let collection_of_tree name tree =
  let c = Collection.create name in
  ignore (Collection.add_document c tree);
  Collection.snapshot c

let collection_of_trees name trees =
  let c = Collection.create name in
  List.iter (fun t -> ignore (Collection.add_document c t)) trees;
  Collection.snapshot c

let seo_of_docs ?lexicon ?content_tags ?max_content_terms ~eps docs =
  match
    Seo.of_documents ~metric ~eps ?lexicon ?content_tags ?max_content_terms docs
  with
  | Ok seo -> seo
  | Error msg -> failwith ("SEO precomputation failed: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Figure 15: recall / precision / quality on the 12-query workload      *)
(* ------------------------------------------------------------------ *)

type f15_row = {
  dataset : int;
  query_id : int;
  tax : float * float;  (** precision, recall *)
  toss2 : float * float;
  toss3 : float * float;
}

let f15_rows = ref None

let f15_compute () =
  match !f15_rows with
  | Some rows -> rows
  | None ->
      let rows =
        List.concat_map
          (fun ds ->
            (* "3 data sets (each containing 100 random papers)" *)
            let corpus = Corpus.generate ~seed:(100 + ds) ~n_papers:100 () in
            let rendered = Dblp_gen.render ~seed:(100 + ds) corpus in
            let doc = Doc.of_tree rendered.Dblp_gen.tree in
            let coll = collection_of_tree "dblp" rendered.Dblp_gen.tree in
            (* The queries test author (~) and venue (isa) content, so only
               those tags' values need to enter the ontology. *)
            let seo2 = seo_of_docs ~content_tags:[ "author"; "booktitle" ] ~eps:2.0 [ doc ] in
            let seo3 = seo_of_docs ~content_tags:[ "author"; "booktitle" ] ~eps:3.0 [ doc ] in
            let queries = Workload.selection_queries ~n:4 corpus in
            List.map
              (fun (q : Workload.query) ->
                let run seo mode =
                  let results, _ =
                    Executor.select ~mode seo coll ~pattern:q.Workload.pattern
                      ~sl:q.Workload.sl
                  in
                  let returned = Workload.result_keys results in
                  ( Quality.precision ~correct:q.Workload.correct ~returned,
                    Quality.recall ~correct:q.Workload.correct ~returned )
                in
                {
                  dataset = ds;
                  query_id = q.Workload.query_id;
                  tax = run seo2 Executor.Tax;
                  toss2 = run seo2 Executor.Toss;
                  toss3 = run seo3 Executor.Toss;
                })
              queries)
          [ 1; 2; 3 ]
      in
      f15_rows := Some rows;
      rows

let fig15a () =
  B.print_header
    "Figure 15(a): precision and recall of TAX vs TOSS, 12 selection queries";
  let rows = f15_compute () in
  emit "fig15a"
    ~columns:
      [ "query"; "TAX p"; "TAX r"; "TOSS(2) p"; "TOSS(2) r"; "TOSS(3) p"; "TOSS(3) r" ]
    (List.mapi
       (fun i r ->
         [
           Printf.sprintf "Q%d (ds%d)" (i + 1) r.dataset;
           B.f3 (fst r.tax); B.f3 (snd r.tax);
           B.f3 (fst r.toss2); B.f3 (snd r.toss2);
           B.f3 (fst r.toss3); B.f3 (snd r.toss3);
         ])
       rows);
  let avg f = Quality.mean (List.map f rows) in
  Printf.printf
    "\naverages: TAX p=%s r=%s | TOSS(2) p=%s r=%s | TOSS(3) p=%s r=%s\n"
    (B.f3 (avg (fun r -> fst r.tax))) (B.f3 (avg (fun r -> snd r.tax)))
    (B.f3 (avg (fun r -> fst r.toss2))) (B.f3 (avg (fun r -> snd r.toss2)))
    (B.f3 (avg (fun r -> fst r.toss3))) (B.f3 (avg (fun r -> snd r.toss3)));
  Printf.printf
    "paper: TAX p=1.000 (r<0.5 for 75%% of queries) | TOSS(2) p=0.987 r=0.596 | TOSS(3) p=0.942 r=0.843\n"

let fig15b () =
  B.print_header
    "Figure 15(b): quality sqrt(p*r) against sqrt(TAX recall) per query";
  let rows = f15_compute () in
  let q (p, r) = Quality.quality ~precision:p ~recall:r in
  emit "fig15b"
    ~columns:[ "query"; "sqrt(TAX r)"; "TAX quality"; "TOSS(2) quality"; "TOSS(3) quality" ]
    (List.mapi
       (fun i r ->
         [
           Printf.sprintf "Q%d (ds%d)" (i + 1) r.dataset;
           B.f3 (sqrt (snd r.tax));
           B.f3 (q r.tax); B.f3 (q r.toss2); B.f3 (q r.toss3);
         ])
       rows);
  let dominated =
    List.length
      (List.filter (fun r -> q r.toss3 >= q r.tax -. 1e-9) rows)
  in
  Printf.printf "\nTOSS(3) quality >= TAX quality on %d of %d queries\n" dominated
    (List.length rows);
  Printf.printf "paper: TOSS(3) outperforms TAX on all queries except the 3 with TAX recall 1\n"

let fig15c () =
  B.print_header "Figure 15(c): recall improvement over TAX, normalized by precision";
  let rows = f15_compute () in
  let norm (p, r) = p *. r in
  emit "fig15c"
    ~columns:[ "query"; "TAX p*r"; "TOSS(2) p*r"; "TOSS(3) p*r"; "TOSS(3)/TAX" ]
    (List.mapi
       (fun i r ->
         let base = norm r.tax in
         let ratio =
           if base = 0. then (if norm r.toss3 > 0. then "inf" else "1.00")
           else B.f2 (norm r.toss3 /. base)
         in
         [
           Printf.sprintf "Q%d (ds%d)" (i + 1) r.dataset;
           B.f3 base; B.f3 (norm r.toss2); B.f3 (norm r.toss3); ratio;
         ])
       rows);
  let doubled =
    List.length
      (List.filter (fun r -> norm r.toss3 >= 2. *. norm r.tax && norm r.tax > 0.) rows)
    + List.length (List.filter (fun r -> norm r.tax = 0. && norm r.toss3 > 0.) rows)
  in
  Printf.printf "\nnormalized recall at least doubled on %d of %d queries\n" doubled
    (List.length rows);
  Printf.printf "paper: most queries get their normalized recall more than doubled at eps=3\n"

(* ------------------------------------------------------------------ *)
(* Figure 16(a): selection scalability                                   *)
(* ------------------------------------------------------------------ *)

(* Ontology sizes: the seeded lexicon padded with synthetic concepts, to
   mimic the paper's ~250/1000/1700-term ontologies. *)
let padded_lexicon extra =
  if extra = 0 then Lexicon.seeded
  else begin
    let synth = Lexicon.synthetic ~seed:5 ~n_terms:extra in
    (* Merge by replaying the synthetic isa pairs into the seeded lexicon. *)
    let h = Lexicon.isa_hierarchy synth in
    List.fold_left
      (fun lex (lo, hi) ->
        Lexicon.add_isa
          ~sub:(Toss_hierarchy.Node.representative lo)
          ~super:(Toss_hierarchy.Node.representative hi)
          lex)
      Lexicon.seeded (Hierarchy.edges h)
  end

let fig16a () =
  B.print_header
    "Figure 16(a): selection scalability -- time vs data size, per ontology size";
  let pattern, sl = Workload.scalability_selection () in
  let sizes = [ 500; 1000; 2000; 4000; 8000; 16000 ] in
  let ontologies = [ ("small", 0); ("medium", 750); ("large", 1500) ] in
  (* Venue vocabulary is size-independent, so one SEO per ontology size
     (the paper precomputes the SEO too). *)
  let probe = Dblp_gen.render ~seed:0 (Corpus.generate ~seed:0 ~n_papers:200 ()) in
  let seos =
    List.map
      (fun (name, extra) ->
        let lexicon = padded_lexicon extra in
        let seo =
          seo_of_docs ~lexicon ~content_tags:[ "booktitle" ] ~eps:2.0
            [ Doc.of_tree probe.Dblp_gen.tree ]
        in
        (name, seo))
      ontologies
  in
  let rows =
    List.map
      (fun n_papers ->
        let corpus = Corpus.generate ~seed:16 ~n_papers () in
        let rendered = Dblp_gen.render ~seed:16 corpus in
        let bytes = Printer.byte_size rendered.Dblp_gen.tree in
        let coll = collection_of_tree "dblp" rendered.Dblp_gen.tree in
        let time_of seo mode =
          let _, stats = Executor.select ~mode seo coll ~pattern ~sl in
          Executor.total_s stats.Executor.phases
        in
        let tax = time_of (snd (List.hd seos)) Executor.Tax in
        let toss_times =
          List.map (fun (name, seo) -> (name, time_of seo Executor.Toss)) seos
        in
        (n_papers, bytes, tax, toss_times))
      sizes
  in
  emit "fig16a"
    ~columns:
      [ "papers"; "KB"; "TAX (s)"; "TOSS small (s)"; "TOSS medium (s)"; "TOSS large (s)" ]
    (List.map
       (fun (n, bytes, tax, toss) ->
         [
           string_of_int n;
           string_of_int (bytes / 1024);
           B.fs tax;
           B.fs (List.assoc "small" toss);
           B.fs (List.assoc "medium" toss);
           B.fs (List.assoc "large" toss);
         ])
       rows);
  Printf.printf
    "\npaper: ~linear in data size; TOSS within a small constant of TAX,\n\
     nearly independent of ontology size; the gap grows with data size\n"

(* ------------------------------------------------------------------ *)
(* Figure 16(b): join scalability                                        *)
(* ------------------------------------------------------------------ *)

let join_setup ~seed ~n_papers ~eps =
  let corpus = Corpus.generate ~seed ~n_papers () in
  let d = Dblp_gen.render ~seed corpus in
  let s = Sigmod_gen.render ~seed corpus in
  let left = collection_of_tree "dblp" d.Dblp_gen.tree in
  let right = collection_of_trees "sigmod" s.Sigmod_gen.trees in
  let bytes =
    Printer.byte_size d.Dblp_gen.tree
    + List.fold_left (fun acc t -> acc + Printer.byte_size t) 0 s.Sigmod_gen.trees
  in
  let docs = Doc.of_tree d.Dblp_gen.tree :: List.map Doc.of_tree s.Sigmod_gen.trees in
  let seo =
    seo_of_docs ~content_tags:[ "booktitle"; "conference" ] ~eps docs
  in
  (left, right, bytes, seo)

(* An equality cross-condition join: the planner lowers it to a hash
   pairing, while its reference plan ([~optimize:false], run by
   [self_join_plan]) keeps the all-pairs nested loop. The
   planner-sensitive benchmarks self-join DBLP on the paper title --
   each title pairs with only itself, so the nested loop's |L|x|R|
   evaluations dwarf the answer and the hash pairing's advantage is what
   gets measured, not result materialization. *)
let equi_join_pattern ~ltag ~lleaf ~rtag ~rleaf () =
  let open Pattern in
  let left = node 1 [ pc (leaf 2) ] in
  let right = node 3 [ pc (leaf 4) ] in
  let root = node 0 [ ad left; ad right ] in
  let condition =
    Condition.conj
      [
        Condition.tag_eq 0 Toss_tax.Algebra.prod_root_tag;
        Condition.tag_eq 1 ltag;
        Condition.tag_eq 2 lleaf;
        Condition.tag_eq 3 rtag;
        Condition.tag_eq 4 rleaf;
        Condition.Cmp (Condition.Content 2, Condition.Eq, Condition.Content 4);
      ]
  in
  (v root condition, [ 1; 3 ])

let title_self_join () =
  equi_join_pattern ~ltag:"inproceedings" ~lleaf:"title" ~rtag:"inproceedings"
    ~rleaf:"title" ()

(* The similarity twin of [title_self_join]: the cross atom is [~], so
   the planner lowers it to the signature-indexed sim pairing while the
   reference plan keeps the nested loop. With the titles in the
   ontology each title's cluster is essentially itself, so the answer
   stays linear in the corpus while the pair space grows quadratically
   -- the regime the signature index exists for. *)
let title_sim_self_join () =
  let open Pattern in
  let left = node 1 [ pc (leaf 2) ] in
  let right = node 3 [ pc (leaf 4) ] in
  let root = node 0 [ ad left; ad right ] in
  let condition =
    Condition.conj
      [
        Condition.tag_eq 0 Toss_tax.Algebra.prod_root_tag;
        Condition.tag_eq 1 "inproceedings";
        Condition.tag_eq 2 "title";
        Condition.tag_eq 3 "inproceedings";
        Condition.tag_eq 4 "title";
        Condition.Sim (Condition.Content 2, Condition.Content 4);
      ]
  in
  (v root condition, [ 1; 3 ])

(* A self-join of [coll] planned and run through [Plan.run]. With
   [~optimize:false] this is the planner's reference plan -- the same
   compiled sides, nested-loop pairing -- which the ablations and the
   [join-eq-naive] kernel time against the planned pairing. *)
let self_join_plan ~mode ~optimize seo coll ~pattern ~sl =
  let eval =
    match mode with
    | Rewrite.Tax -> Condition.eval_tax
    | Rewrite.Toss -> Toss_condition.evaluator seo
  in
  fst
    (Plan.run ~eval
       ~coll_of:(fun _ -> coll)
       (Planner.plan_join ~mode ~optimize seo coll coll ~pattern ~sl))

let fig16b () =
  B.print_header "Figure 16(b): join scalability -- time vs total data size";
  let pattern, sl = Workload.join_query () in
  let sizes = [ 100; 200; 400; 800 ] in
  let rows =
    List.map
      (fun n_papers ->
        let left, right, bytes, seo = join_setup ~seed:26 ~n_papers ~eps:2.0 in
        let time_of mode =
          let results, stats = Executor.join ~mode seo left right ~pattern ~sl in
          (List.length results, Executor.total_s stats.Executor.phases)
        in
        let tax_n, tax_t = time_of Executor.Tax in
        let toss_n, toss_t = time_of Executor.Toss in
        (n_papers, bytes, tax_n, tax_t, toss_n, toss_t))
      sizes
  in
  emit "fig16b"
    ~columns:[ "papers/side"; "total KB"; "TAX res"; "TAX (s)"; "TOSS res"; "TOSS (s)" ]
    (List.map
       (fun (n, bytes, tn, tt, on_, ot) ->
         [
           string_of_int n; string_of_int (bytes / 1024);
           string_of_int tn; B.fs tt; string_of_int on_; B.fs ot;
         ])
       rows);
  Printf.printf
    "\npaper: linear until the intermediate result dominates, then superlinear;\n\
     the TAX-TOSS gap grows with data size (more ontology accesses)\n"

(* ------------------------------------------------------------------ *)
(* Figure 16(c): TOSS computation time vs eps                            *)
(* ------------------------------------------------------------------ *)

let fig16c () =
  B.print_header "Figure 16(c): TOSS query time against the similarity threshold eps";
  let eps_values = [ 0.0; 1.0; 2.0; 3.0; 4.0 ] in
  (* Selection side: fixed data, ontology rebuilt per eps (the SEO depends
     on eps); only query time is reported, as in the paper. *)
  let sel_pattern, sel_sl = Workload.scalability_selection () in
  let sel_corpus = Corpus.generate ~seed:36 ~n_papers:2000 () in
  let sel_rendered = Dblp_gen.render ~seed:36 sel_corpus in
  let sel_coll = collection_of_tree "dblp" sel_rendered.Dblp_gen.tree in
  let sel_doc = Doc.of_tree sel_rendered.Dblp_gen.tree in
  let join_pattern, join_sl = Workload.join_query () in
  let rows =
    List.map
      (fun eps ->
        let seo =
          seo_of_docs ~content_tags:[ "booktitle" ] ~eps [ sel_doc ]
        in
        let (sel_results, _), sel_t =
          B.time_median ~runs:3 (fun () ->
              Executor.select ~mode:Executor.Toss seo sel_coll ~pattern:sel_pattern
                ~sl:sel_sl)
        in
        let left, right, _, join_seo = join_setup ~seed:36 ~n_papers:300 ~eps in
        let (join_results, _), join_t =
          B.time_median ~runs:3 (fun () ->
              Executor.join ~mode:Executor.Toss join_seo left right
                ~pattern:join_pattern ~sl:join_sl)
        in
        (eps, sel_t, List.length sel_results, join_t, List.length join_results))
      eps_values
  in
  emit "fig16c"
    ~columns:[ "eps"; "selection (s)"; "sel results"; "join (s)"; "join results" ]
    (List.map
       (fun (e, st, sn, jt, jn) ->
         [ B.f2 e; B.fs st; string_of_int sn; B.fs jt; string_of_int jn ])
       rows);
  Printf.printf
    "\npaper: both selection and join time increase approximately linearly\n\
     with eps (larger SEO nodes mean larger expansions and results).\n\
     At eps = 4 the venue vocabulary becomes similarity INCONSISTENT\n\
     (Definition 9): the existential SEA lift cycles, the universal-lift\n\
     fallback drops the venue orderings, and the selection result collapses\n\
     -- the practical reason the paper's thresholds stop at eps = 3.\n"

(* ------------------------------------------------------------------ *)
(* Ablations                                                             *)
(* ------------------------------------------------------------------ *)

let abl_sea () =
  B.print_header "Ablation: SEA cost vs ontology size and eps";
  let sizes = [ 200; 400; 800; 1600 ] in
  let rows =
    List.map
      (fun n ->
        let lex = Lexicon.synthetic ~seed:4 ~n_terms:n in
        let h = Lexicon.isa_hierarchy lex in
        let time_at eps =
          let _, t =
            B.time (fun () -> Sea.enhance ~metric:Levenshtein.metric ~eps h)
          in
          t
        in
        (n, time_at 1.0, time_at 2.0))
      sizes
  in
  emit "abl-sea"
    ~columns:[ "terms"; "SEA eps=1 (s)"; "SEA eps=2 (s)" ]
    (List.map (fun (n, t1, t2) -> [ string_of_int n; B.fs t1; B.fs t2 ]) rows);
  Printf.printf
    "\nsupports the paper's architecture: the SEO is precomputed once, so\n\
     this quadratic-ish cost stays out of the per-query path\n"

let abl_fuse () =
  B.print_header "Ablation: fusion cost vs number of hierarchies";
  let make_hierarchy i =
    let corpus = Corpus.generate ~seed:(50 + i) ~n_papers:150 () in
    let rendered = Dblp_gen.render ~seed:(50 + i) corpus in
    let o = Maker.make (Doc.of_tree rendered.Dblp_gen.tree) in
    Ontology.get Ontology.isa o
  in
  let hierarchies = List.init 6 make_hierarchy in
  let rows =
    List.map
      (fun k ->
        let hs = List.filteri (fun i _ -> i < k) hierarchies in
        let terms = List.fold_left (fun n h -> n + List.length (Hierarchy.terms h)) 0 hs in
        let r, t = B.time (fun () -> Fusion.fuse hs []) in
        let fused_nodes =
          match r with Ok { Fusion.fused; _ } -> Hierarchy.n_nodes fused | Error _ -> -1
        in
        (k, terms, fused_nodes, t))
      [ 2; 3; 4; 5; 6 ]
  in
  emit "abl-fuse"
    ~columns:[ "hierarchies"; "input terms"; "fused nodes"; "time (s)" ]
    (List.map
       (fun (k, terms, nodes, t) ->
         [ string_of_int k; string_of_int terms; string_of_int nodes; B.fs t ])
       rows)

let abl_plan () =
  B.print_header
    "Ablation: planned hash pairing vs the planner's nested-loop reference plan \
     (equality join)";
  let pattern, sl = title_self_join () in
  let rows =
    List.map
      (fun n_papers ->
        let corpus = Corpus.generate ~seed:71 ~n_papers () in
        let rendered = Dblp_gen.render ~seed:71 corpus in
        let coll = collection_of_tree "dblp" rendered.Dblp_gen.tree in
        let seo =
          seo_of_docs ~content_tags:[ "booktitle" ] ~eps:2.0
            [ Doc.of_tree rendered.Dblp_gen.tree ]
        in
        let time_of optimize =
          B.time_median ~runs:3 (fun () ->
              self_join_plan ~mode:Rewrite.Tax ~optimize seo coll ~pattern ~sl)
        in
        let r_naive, naive = time_of false in
        let r_plan, planned = time_of true in
        (* Hash pairing emits accepted pairs in nested-loop order, so
           plain list equality is the witness-for-witness check. *)
        assert (r_naive = r_plan);
        let n_plan = List.length r_plan in
        (n_papers, n_plan, naive, planned))
      [ 200; 400; 800 ]
  in
  emit "abl-plan"
    ~columns:[ "papers/side"; "results"; "nested loop (s)"; "planned (s)"; "speedup" ]
    (List.map
       (fun (n, res, naive, planned) ->
         [
           string_of_int n; string_of_int res; B.fs naive; B.fs planned;
           B.f2 (naive /. planned);
         ])
       rows);
  Printf.printf
    "\nthe gap widens with size: the nested loop evaluates the cross-condition\n\
     on every left x right pair, the hash pairing only on key matches\n"

let abl_simjoin () =
  B.print_header
    "Ablation: sim-pair pairing vs the planner's nested-loop reference plan";
  let pattern, sl = title_sim_self_join () in
  let rows =
    List.map
      (fun n_papers ->
        let corpus = Corpus.generate ~seed:73 ~n_papers () in
        let rendered = Dblp_gen.render ~seed:73 corpus in
        (* Two documents, not one: the planner's build-side statistic is
           the document count, and a single-document build side takes the
           tiny-build nested-loop fallback. The empty sibling changes no
           results. *)
        let coll =
          collection_of_trees "dblp"
            [ rendered.Dblp_gen.tree; Toss_xml.Parser.parse_exn "<dblp/>" ]
        in
        (* Titles enter the ontology so [~] is judged on SEO clusters,
           not the metric fallback -- the case the signature index
           accelerates. *)
        let seo =
          seo_of_docs ~content_tags:[ "title" ] ~eps:2.0
            [ Doc.of_tree rendered.Dblp_gen.tree ]
        in
        let time_of optimize =
          B.time_median ~runs:3 (fun () ->
              self_join_plan ~mode:Rewrite.Toss ~optimize seo coll ~pattern ~sl)
        in
        let r_naive, naive = time_of false in
        let r_sim, sim = time_of true in
        (* Witness-for-witness: the operator must reproduce the nested
           loop's answer exactly (both paths emit in build order, so
           plain list equality is the strongest available check). *)
        assert (r_naive = r_sim);
        (n_papers, List.length r_sim, naive, sim))
      [ 200; 400; 800 ]
  in
  emit "abl-simjoin"
    ~columns:
      [ "papers/side"; "results"; "nested loop (s)"; "sim-pair (s)"; "speedup" ]
    (List.map
       (fun (n, res, naive, sim) ->
         [
           string_of_int n; string_of_int res; B.fs naive; B.fs sim;
           B.f2 (naive /. sim);
         ])
       rows);
  Printf.printf
    "\nthe nested loop scores every left x right pair; the sim pairing\n\
     probes the frequency-ordered signature prefix index and re-checks\n\
     only the candidates, so its cost tracks the answer, not the pair\n\
     space -- the gap widens quadratically with the corpus\n"

let abl_compile () =
  B.print_header
    "Ablation: compiled single-pass matcher vs interpreted scan/prune/embed";
  let pattern, sl = Workload.scalability_selection () in
  let rows =
    List.map
      (fun n_papers ->
        let corpus = Corpus.generate ~seed:81 ~n_papers () in
        let rendered = Dblp_gen.render ~seed:81 corpus in
        let coll = collection_of_tree "dblp" rendered.Dblp_gen.tree in
        let seo =
          seo_of_docs ~content_tags:[ "booktitle" ] ~eps:2.0
            [ Doc.of_tree rendered.Dblp_gen.tree ]
        in
        let time_of compile =
          let (results, _), t =
            B.time_median ~runs:5 (fun () ->
                Executor.select ~mode:Executor.Toss ~compile seo coll ~pattern ~sl)
          in
          (List.length results, t)
        in
        let n_i, interp = time_of false in
        let n_c, compiled = time_of true in
        assert (n_i = n_c);
        (n_papers, n_c, interp, compiled))
      [ 500; 1000; 2000 ]
  in
  emit "abl-compile"
    ~columns:[ "papers"; "results"; "interpreted (s)"; "compiled (s)"; "speedup" ]
    (List.map
       (fun (n, res, interp, compiled) ->
         [
           string_of_int n; string_of_int res; B.fs interp; B.fs compiled;
           B.f2 (interp /. compiled);
         ])
       rows);
  Printf.printf
    "\nsame answers by construction (the differential harness holds both\n\
     paths to the oracle); the compiled matcher skips the store scans and\n\
     per-document pruning and decides every pattern node in one arena pass\n"

(* The store's value indexes, measured where they live: the label
   scans the rewriter sends for the Figure 16(a) query, evaluated with
   the indexes and by a full scan of every document. *)
let abl_idx () =
  B.print_header
    "Ablation: store value indexes on vs off (Figure 16(a) label scans)";
  let pattern, _ = Workload.scalability_selection () in
  let rows =
    List.map
      (fun n_papers ->
        let corpus = Corpus.generate ~seed:61 ~n_papers () in
        let rendered = Dblp_gen.render ~seed:61 corpus in
        let coll = collection_of_tree "dblp" rendered.Dblp_gen.tree in
        let seo =
          seo_of_docs ~content_tags:[ "booktitle" ] ~eps:2.0
            [ Doc.of_tree rendered.Dblp_gen.tree ]
        in
        let queries = Rewrite.label_queries ~mode:Rewrite.Toss seo pattern in
        let scan_all use_index =
          List.map
            (fun (_, xpath) -> Collection.Snapshot.eval ~use_index coll xpath)
            queries
        in
        (* Build the lazy per-document indexes outside the measurement. *)
        ignore (scan_all true);
        let indexed, ti = B.time_median ~runs:5 (fun () -> scan_all true) in
        let scanned, tu = B.time_median ~runs:5 (fun () -> scan_all false) in
        assert (indexed = scanned);
        let rows =
          List.fold_left (fun acc hits -> acc + List.length hits) 0 indexed
        in
        (n_papers, List.length queries, rows, ti, tu))
      [ 500; 1000; 2000 ]
  in
  emit "abl-idx"
    ~columns:[ "papers"; "scans"; "rows"; "indexed (s)"; "unindexed (s)"; "speedup" ]
    (List.map
       (fun (n, scans, rows, ti, tu) ->
         [
           string_of_int n; string_of_int scans; string_of_int rows; B.fs ti;
           B.fs tu; B.f2 (tu /. ti);
         ])
       rows)

(* ------------------------------------------------------------------ *)
(* Serving: the versioned result cache, cold vs warm vs disabled        *)
(* ------------------------------------------------------------------ *)

(* Runs against the server's in-process engine (no socket, no pool), so
   the numbers isolate the cache itself rather than transport costs. *)
let serve_tql =
  "MATCH #1:inproceedings(/#2:booktitle) WHERE #2.content isa \"database conference\" SELECT #1"

let serve_engine ~seed ~n_papers =
  let eng =
    (* The same measure `toss serve` runs, so the numbers match the
       deployed configuration. *)
    match Engine.create ~metric:Workload.experiment_metric () with
    | Ok eng -> eng
    | Error msg -> failwith ("serve engine creation failed: " ^ msg)
  in
  let rendered = Dblp_gen.render ~seed (Corpus.generate ~seed ~n_papers ()) in
  let xml = Printer.to_string rendered.Dblp_gen.tree in
  (match
     Engine.exec eng ~deadline:None (Protocol.Insert { collection = "dblp"; xml })
   with
  | Ok _ -> ()
  | Error e -> failwith ("serve insert failed: " ^ e.Protocol.message));
  eng

let serve_query ?(cache = true) eng =
  match
    Engine.exec eng ~deadline:None
      (Protocol.Query
         { collection = "dblp"; tql = serve_tql; mode = Executor.Toss; cache })
  with
  | Ok payload -> payload
  | Error e -> failwith ("serve query failed: " ^ e.Protocol.message)

let cache_status payload =
  match Toss_json.member "cache" payload with
  | Some (Toss_json.Str s) -> s
  | _ -> "?"

let serve_cache () =
  B.print_header
    "Serving: result cache cold vs warm vs disabled (in-process engine)";
  let rows =
    List.map
      (fun n_papers ->
        let eng = serve_engine ~seed:91 ~n_papers in
        (* The first query pays the SEO precompute and populates the
           cache for the collection's current version. *)
        let first, cold_t = B.time (fun () -> serve_query eng) in
        assert (cache_status first = "miss");
        (* A single hit is near the clock's resolution; time batches of
           100 and report the per-hit median. *)
        let warm, warm_t =
          B.time_median ~runs:11 (fun () ->
              let last = ref Toss_json.Null in
              for _ = 1 to 100 do last := serve_query eng done;
              !last)
        in
        let warm_t = warm_t /. 100. in
        assert (cache_status warm = "hit");
        let off, off_t =
          B.time_median ~runs:5 (fun () -> serve_query ~cache:false eng)
        in
        assert (cache_status off = "miss");
        (* A write invalidates: the very next cached query misses again,
           at the bumped collection version. *)
        (match
           Engine.exec eng ~deadline:None
             (Protocol.Insert
                {
                  collection = "dblp";
                  xml = "<inproceedings><title>x</title></inproceedings>";
                })
         with
        | Ok _ -> ()
        | Error e -> failwith ("serve invalidating insert failed: " ^ e.Protocol.message));
        let post, post_t = B.time (fun () -> serve_query eng) in
        assert (cache_status post = "miss");
        (n_papers, cold_t, off_t, warm_t, post_t))
      [ 100; 250; 500 ]
  in
  emit "serve-cache"
    ~columns:
      [
        "papers"; "cold (s)"; "uncached (s)"; "warm hit (s)"; "post-insert (s)";
        "hit speedup";
      ]
    (List.map
       (fun (n, cold, off, warm, post) ->
         [
           string_of_int n; B.fs cold; B.fs off; B.fs warm; B.fs post;
           B.f2 (off /. warm);
         ])
       rows);
  Printf.printf
    "\ncold pays the SEO precompute; a warm hit skips execution entirely;\n\
     an insert bumps the collection version so the next query misses --\n\
     a cached result is never served across a write\n"

(* The parallel read path: N worker domains hammer the same collection
   with the uncached query for a fixed window; the row is completed
   queries per second. Every query pins its own MVCC snapshot and runs
   lock-free, so on an M-core machine QPS should scale up to
   min(domains, M). The experiment is also a gate: wherever the core
   count allows real parallelism the rate must climb step to step, and
   where it doesn't (domains > cores) oversubscription must not
   collapse throughput. *)
let serve_parallel_qps eng ~n_domains ~duration_s =
  let stop_at = Unix.gettimeofday () +. duration_s in
  let one () =
    let n = ref 0 in
    while Unix.gettimeofday () < stop_at do
      ignore (serve_query ~cache:false eng);
      incr n
    done;
    !n
  in
  let domains = List.init n_domains (fun _ -> Domain.spawn one) in
  let total = List.fold_left (fun acc d -> acc + Domain.join d) 0 domains in
  float_of_int total /. duration_s

let serve_parallel () =
  B.print_header
    "Serving: parallel read path -- uncached QPS vs worker domains";
  let eng = serve_engine ~seed:91 ~n_papers:100 in
  (* Pay the SEO precompute once, outside the measured windows. *)
  ignore (serve_query ~cache:false eng);
  let cores = Domain.recommended_domain_count () in
  let duration_s = 0.5 in
  let levels = [ 1; 2; 4; 8 ] in
  let rows =
    List.map
      (fun n -> (n, serve_parallel_qps eng ~n_domains:n ~duration_s))
      levels
  in
  let qps1 = match rows with (_, q) :: _ -> q | [] -> 1. in
  emit "serve-parallel"
    ~columns:[ "domains"; "qps"; "speedup vs 1" ]
    (List.map
       (fun (n, qps) -> [ string_of_int n; B.f2 qps; B.f2 (qps /. qps1) ])
       rows);
  Printf.printf
    "\n%d core(s) available: queries pin immutable snapshots and run with\n\
     no lock held, so QPS scales with domains up to the core count\n"
    cores;
  (* The gate. Up to the core count each doubling of domains must
     actually climb (1.2x per step is well under the ~2x ideal, leaving
     room for noise). Past the core count parallelism is fictional --
     domains time-share one core and every minor GC is a cross-domain
     rendezvous -- so the only requirement is that oversubscription
     does not destroy throughput relative to the best honest level. *)
  let capacity_qps =
    List.fold_left
      (fun acc (n, qps) -> if cores >= n then Some qps else acc)
      None rows
  in
  List.iter2
    (fun (n_prev, qps_prev) (n_next, qps_next) ->
      if cores >= n_next && qps_next < qps_prev *. 1.2 then
        failwith
          (Printf.sprintf
             "serve-parallel gate: %d -> %d domains only scaled %.2fx on %d cores"
             n_prev n_next (qps_next /. qps_prev) cores))
    (List.filteri (fun i _ -> i < List.length rows - 1) rows)
    (List.tl rows);
  List.iter
    (fun (n, qps) ->
      match capacity_qps with
      | Some cap when n > cores && qps < cap *. 0.25 ->
          failwith
            (Printf.sprintf
               "serve-parallel gate: %d domains on %d core(s) fell to %.2fx of the \
                in-capacity rate"
               n cores (qps /. cap))
      | _ -> ())
    rows;
  Printf.printf "serve-parallel gate: PASS\n"

(* ------------------------------------------------------------------ *)
(* Serving: scale-out -- router over shards vs a single server           *)
(* ------------------------------------------------------------------ *)

(* In-process deployment helpers: start a server/router thread, wait for
   its ready callback, return the resolved address and a stop function
   (shutdown over the wire + join). *)
(* [Condition] names the TQL predicate module here, so the thread
   primitive needs qualifying. *)
module Condvar = Stdlib.Condition

let spawn_serving run =
  let ready = Mutex.create () in
  let cond = Condvar.create () in
  let started = ref false in
  let resolved = ref "" in
  let outcome = ref (Ok ()) in
  let thread =
    Thread.create
      (fun () ->
        outcome :=
          run (fun addr ->
              Mutex.lock ready;
              resolved := addr;
              started := true;
              Condvar.signal cond;
              Mutex.unlock ready))
      ()
  in
  Mutex.lock ready;
  while not !started do
    Condvar.wait cond ready
  done;
  Mutex.unlock ready;
  let stop () =
    (match Client.connect !resolved with
    | Ok conn ->
        ignore (Client.call conn Protocol.Shutdown);
        Client.close conn
    | Error _ -> ());
    Thread.join thread;
    match !outcome with
    | Ok () -> ()
    | Error msg -> failwith ("serving thread exited with: " ^ msg)
  in
  (!resolved, stop)

let temp_socket prefix =
  let path = Filename.temp_file prefix ".sock" in
  Sys.remove path;
  path

let spawn_server ?(domains = 2) () =
  let listen = Transport.Unix_sock (temp_socket "toss_bench_srv") in
  let config = { (Server.default_config ~listen) with Server.domains } in
  spawn_serving (fun ready -> Server.run ~ready config)

let spawn_router shards =
  let listen = Transport.Unix_sock (temp_socket "toss_bench_rtr") in
  let map =
    match Shard_map.make ~shards ~replicated:[] with
    | Ok m -> m
    | Error msg -> failwith msg
  in
  spawn_serving (fun ready ->
      Router.run ~ready (Router.default_config ~listen ~map))

(* Open-loop latency of a single server vs a router over two shards, at
   the same offered load -- the scale-out acceptance experiment. The
   percentiles are measured from each request's scheduled arrival, so
   backlog is charged to the requests it delays. *)
let serve_sharded () =
  B.print_header
    "Serving: sharded scatter-gather vs single server (open-loop loadgen)";
  let requests = 300 and qps = 150. in
  let loadgen target =
    let cfg =
      {
        (Loadgen.default_config ~target) with
        Loadgen.requests;
        qps;
        concurrency = 8;
        n_papers = 40;
      }
    in
    match Loadgen.run cfg with
    | Ok r ->
        if Loadgen.failed r then
          failwith
            (Printf.sprintf "serve-sharded: %d transport errors against %s"
               r.Loadgen.transport_errors target);
        r
    | Error msg -> failwith ("serve-sharded loadgen: " ^ msg)
  in
  (* Single server, open loop. *)
  let single_addr, stop_single = spawn_server () in
  let single = loadgen single_addr in
  stop_single ();
  (* Two shards behind the router, same offered load. *)
  let s1, stop1 = spawn_server () in
  let s2, stop2 = spawn_server () in
  let router_addr, stop_router = spawn_router [ s1; s2 ] in
  let sharded = loadgen router_addr in
  stop_router ();
  stop1 ();
  stop2 ();
  let row name (r : Loadgen.report) =
    [
      name;
      B.f2 r.Loadgen.target_qps;
      B.f2 r.Loadgen.achieved_qps;
      string_of_int r.Loadgen.ok;
      B.f2 r.Loadgen.p50_ms;
      B.f2 r.Loadgen.p99_ms;
      B.f2 r.Loadgen.p999_ms;
    ]
  in
  emit "serve-sharded"
    ~columns:
      [ "deployment"; "target qps"; "achieved"; "ok"; "p50 ms"; "p99 ms"; "p999 ms" ]
    [ row "single" single; row "router+2shards" sharded ];
  Printf.printf
    "\nopen-loop latency is measured from each request's scheduled Poisson\n\
     arrival, so backlog a slow answer causes is charged to the requests\n\
     it delays. The router must sustain the same offered load as the single\n\
     server; its per-request floor adds one scatter-gather hop.\n";
  (* The acceptance gate from the issue: the sharded deployment sustains
     the target rate no worse than the single server (5% slack for timer
     jitter at the 1-2 s horizon of this experiment). *)
  if sharded.Loadgen.achieved_qps < 0.95 *. single.Loadgen.achieved_qps then
    failwith
      (Printf.sprintf
         "serve-sharded gate: router sustained %.1f qps < single server's %.1f"
         sharded.Loadgen.achieved_qps single.Loadgen.achieved_qps);
  Printf.printf "serve-sharded gate: PASS\n"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per figure kernel            *)
(* ------------------------------------------------------------------ *)

let micro () =
  B.print_header "Bechamel micro-benchmarks (one kernel per figure)";
  let open Bechamel in
  let corpus = Corpus.generate ~seed:77 ~n_papers:100 () in
  let rendered = Dblp_gen.render ~seed:77 corpus in
  let doc = Doc.of_tree rendered.Dblp_gen.tree in
  let coll = collection_of_tree "dblp" rendered.Dblp_gen.tree in
  let seo = seo_of_docs ~eps:2.0 [ doc ] in
  let queries = Workload.selection_queries ~n:1 corpus in
  let q = List.hd queries in
  let sel_pattern, sel_sl = Workload.scalability_selection () in
  let small = Corpus.generate ~seed:78 ~n_papers:30 () in
  let sd = Dblp_gen.render ~seed:78 small in
  let ss = Sigmod_gen.render ~seed:78 small in
  let left = collection_of_tree "dblp" sd.Dblp_gen.tree in
  let right = collection_of_trees "sigmod" ss.Sigmod_gen.trees in
  let join_docs =
    Doc.of_tree sd.Dblp_gen.tree :: List.map Doc.of_tree ss.Sigmod_gen.trees
  in
  let join_seo = seo_of_docs ~content_tags:[ "booktitle"; "conference" ] ~eps:2.0 join_docs in
  let join_pattern, join_sl = Workload.join_query () in
  let sea_h = Lexicon.isa_hierarchy (Lexicon.synthetic ~seed:9 ~n_terms:200) in
  let tests =
    [
      Test.make ~name:"fig15-query-toss" (Staged.stage (fun () ->
           ignore
             (Executor.select ~mode:Executor.Toss seo coll ~pattern:q.Workload.pattern
                ~sl:q.Workload.sl)));
      Test.make ~name:"fig15-query-tax" (Staged.stage (fun () ->
           ignore
             (Executor.select ~mode:Executor.Tax seo coll ~pattern:q.Workload.pattern
                ~sl:q.Workload.sl)));
      Test.make ~name:"fig16a-selection" (Staged.stage (fun () ->
           ignore (Executor.select ~mode:Executor.Toss seo coll ~pattern:sel_pattern ~sl:sel_sl)));
      Test.make ~name:"fig16b-join" (Staged.stage (fun () ->
           ignore
             (Executor.join ~mode:Executor.Toss join_seo left right ~pattern:join_pattern
                ~sl:join_sl)));
      Test.make ~name:"fig16c-sea-enhance" (Staged.stage (fun () ->
           ignore (Sea.enhance ~metric:Levenshtein.metric ~eps:2.0 sea_h)));
      Test.make ~name:"kernel-levenshtein" (Staged.stage (fun () ->
           ignore (Levenshtein.distance "Jeffrey David Ullman" "J. D. Ullmann")));
      Test.make ~name:"kernel-name-rules" (Staged.stage (fun () ->
           ignore
             (Toss_similarity.Name_rules.distance "Jeffrey David Ullman" "J. D. Ullman")));
      Test.make ~name:"kernel-xpath-eval" (Staged.stage (fun () ->
           ignore (Collection.Snapshot.eval_string coll "//inproceedings[booktitle='VLDB']/author")));
    ]
  in
  let benchmark test =
    let instances = [ Toolkit.Instance.monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:(Some 100) () in
    Benchmark.all cfg instances test
  in
  let analyze results =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    Analyze.all ols Toolkit.Instance.monotonic_clock results
  in
  List.iter
    (fun test ->
      let results = benchmark (Test.make_grouped ~name:"g" [ test ]) in
      let analysis = analyze results in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "%-28s %12.1f ns/run\n" name est
          | _ -> Printf.printf "%-28s (no estimate)\n" name)
        analysis)
    tests

(* ------------------------------------------------------------------ *)
(* The perf suite and its regression gate                                *)
(* ------------------------------------------------------------------ *)

(* A small, fast, deterministic suite over the same kernels as [micro],
   measured as wall-clock medians so runs are comparable across commits.
   [--quick] records its medians as the baseline artifact (BENCH_8.json
   at the repo root); [--check] re-measures and fails the process when
   any median regressed beyond the tolerance. Older baselines are kept
   so earlier refactors can still be gated against: BENCH_2.json is
   pre-planner, BENCH_3.json pre-server, BENCH_4.json pre-MVCC,
   BENCH_5.json pre-compilation, BENCH_6.json pre-simjoin,
   BENCH_7.json pre-sharding (the gate only iterates baseline entries,
   so kernels newer than a baseline are ignored when checking against
   it). *)
module Baseline = Toss_eval.Baseline

let baseline_label = "toss-perf-suite"
let default_baseline_path = "BENCH_8.json"

let perf_suite ~slowdown () =
  B.print_header "Perf suite (wall-clock medians for the regression gate)";
  let corpus = Corpus.generate ~seed:77 ~n_papers:100 () in
  let rendered = Dblp_gen.render ~seed:77 corpus in
  let doc = Doc.of_tree rendered.Dblp_gen.tree in
  let coll = collection_of_tree "dblp" rendered.Dblp_gen.tree in
  let seo = seo_of_docs ~eps:2.0 [ doc ] in
  let q = List.hd (Workload.selection_queries ~n:1 corpus) in
  let sel_pattern, sel_sl = Workload.scalability_selection () in
  let small = Corpus.generate ~seed:78 ~n_papers:30 () in
  let sd = Dblp_gen.render ~seed:78 small in
  let ss = Sigmod_gen.render ~seed:78 small in
  let left = collection_of_tree "dblp" sd.Dblp_gen.tree in
  let right = collection_of_trees "sigmod" ss.Sigmod_gen.trees in
  let join_docs =
    Doc.of_tree sd.Dblp_gen.tree :: List.map Doc.of_tree ss.Sigmod_gen.trees
  in
  let join_seo =
    seo_of_docs ~content_tags:[ "booktitle"; "conference" ] ~eps:2.0 join_docs
  in
  let join_pattern, join_sl = Workload.join_query () in
  (* Planner-sensitive kernel: an equality self-join big enough that the
     hash pairing visibly beats the all-pairs nested loop. *)
  let eqj = Corpus.generate ~seed:71 ~n_papers:400 () in
  let eqd = Dblp_gen.render ~seed:71 eqj in
  let eq_coll = collection_of_tree "dblp" eqd.Dblp_gen.tree in
  let eq_seo =
    seo_of_docs ~content_tags:[ "booktitle" ] ~eps:2.0
      [ Doc.of_tree eqd.Dblp_gen.tree ]
  in
  let eq_pattern, eq_sl = title_self_join () in
  (* Matcher kernels: the five-label scalability query over a larger
     corpus, one SEO shared by both paths so the medians isolate the
     single-pass compiled matcher against the interpreted
     scan/prune/embed pipeline. *)
  let mc = Corpus.generate ~seed:81 ~n_papers:400 () in
  let md = Dblp_gen.render ~seed:81 mc in
  let m_coll = collection_of_tree "dblp" md.Dblp_gen.tree in
  let m_seo =
    seo_of_docs ~content_tags:[ "booktitle" ] ~eps:2.0
      [ Doc.of_tree md.Dblp_gen.tree ]
  in
  let sea_h = Lexicon.isa_hierarchy (Lexicon.synthetic ~seed:9 ~n_terms:200) in
  let srv = serve_engine ~seed:91 ~n_papers:100 in
  (* Scale-out kernel deployment: the serve-uncached corpus and query,
     but end to end through the scatter-gather router over two shard
     servers -- so the measured delta over [serve-uncached] is the wire
     framing, the fan-out, and the canonical merge. *)
  let shk_s1, shk_stop1 = spawn_server () in
  let shk_s2, shk_stop2 = spawn_server () in
  let shk_router, shk_stop_router = spawn_router [ shk_s1; shk_s2 ] in
  let shk_conn =
    match Client.connect shk_router with
    | Ok c -> c
    | Error msg -> failwith ("serve-sharded kernel connect: " ^ msg)
  in
  let shk_query =
    Protocol.Query
      { collection = "dblp"; tql = serve_tql; mode = Executor.Toss; cache = false }
  in
  (let rendered = Dblp_gen.render ~seed:91 (Corpus.generate ~seed:91 ~n_papers:100 ()) in
   let xml = Printer.to_string rendered.Dblp_gen.tree in
   match Client.call shk_conn (Protocol.Insert { collection = "dblp"; xml }) with
   | Ok _ -> ()
   | Error f -> failwith ("serve-sharded kernel insert: " ^ Client.failure_to_string f));
  (* Similarity-pairing kernels at the 10k x 10k scale the regression
     gate demands. A full executor join at that scale spends minutes in
     the nested loop's per-pair environment plumbing, so the kernels
     measure the pairing itself over the value arrays the operator sees:
     10k probe values against a 10k-record build side drawn from a
     400-term synthetic vocabulary (every eighth term a near-duplicate
     spelling, so SEA clusters exist), plus a 1% unknown tail that lands
     in the metric-fallback bucket. [join-sim] builds the signature
     prefix index, probes it and re-checks every candidate with the
     exact predicate; [join-sim-naive] is the all-pairs reference
     evaluating the same predicate 10^8 times. *)
  let simk_vocab =
    Array.of_list
      (Hierarchy.terms
         (Lexicon.isa_hierarchy (Lexicon.synthetic ~seed:83 ~n_terms:400)))
  in
  let simk_seo =
    (* The vocabulary must occur in a document for the ontology maker to
       keep it, so render it as one leaf per term. *)
    let xml =
      Buffer.create 8192
    in
    Buffer.add_string xml "<vocab>";
    Array.iter
      (fun t ->
        Buffer.add_string xml "<t>";
        Buffer.add_string xml t;
        Buffer.add_string xml "</t>")
      simk_vocab;
    Buffer.add_string xml "</vocab>";
    seo_of_docs ~content_tags:[ "t" ] ~eps:2.0
      [ Doc.of_tree (Toss_xml.Parser.parse_exn (Buffer.contents xml)) ]
  in
  let simk_n = 10_000 in
  let simk_values seed =
    let rng = Random.State.make [| seed; simk_n |] in
    Array.init simk_n (fun _ ->
        if Random.State.int rng 100 = 0 then
          Some (Printf.sprintf "stray term %02d" (Random.State.int rng 50))
        else Some simk_vocab.(Random.State.int rng (Array.length simk_vocab)))
  in
  let simk_build = simk_values 1 in
  let simk_probe = simk_values 2 in
  let simk_scheme = Simjoin.sim_scheme ~mode:Rewrite.Toss simk_seo in
  (* The exact [~] predicate with the probe value's expansion hoisted out
     of the inner loop -- used identically by both sweeps, so the
     kernels compare candidate generation, not memo-table luck. *)
  let simk_check pv =
    if Seo.knows_term simk_seo pv then
      let cluster = Rewrite.similar_terms simk_seo pv in
      fun bv -> List.mem bv cluster
    else fun bv -> Seo.similar simk_seo pv bv
  in
  let simk_sim () =
    let index = Simjoin.build simk_scheme simk_build in
    let out = ref [] in
    Array.iteri
      (fun i v ->
        match v with
        | None -> ()
        | Some pv ->
            let check = simk_check pv in
            List.iter
              (fun j ->
                match simk_build.(j) with
                | Some bv when check bv -> out := (i, j) :: !out
                | _ -> ())
              (Simjoin.probe index pv))
      simk_probe;
    !out
  in
  let simk_naive () =
    let out = ref [] in
    Array.iteri
      (fun i v ->
        match v with
        | None -> ()
        | Some pv ->
            let check = simk_check pv in
            Array.iteri
              (fun j bv ->
                match bv with
                | Some bv when check bv -> out := (i, j) :: !out
                | None | Some _ -> ())
              simk_build)
      simk_probe;
    !out
  in
  (* The acceptance invariant: identical pair multisets. Both sweeps emit
     in probe-major, build-ordinal order, so plain equality is the
     strongest available check. Running it once here also warms the memo
     tables for both kernels. *)
  assert (simk_sim () = simk_naive ());
  (* 11 runs: the sub-millisecond kernels need the extra samples for the
     median to be stable across invocations. *)
  let runs = 11 in
  let kernels =
    [
      ("select-toss", runs, fun () ->
          ignore
            (Executor.select ~mode:Executor.Toss seo coll ~pattern:q.Workload.pattern
               ~sl:q.Workload.sl));
      ("select-tax", runs, fun () ->
          ignore
            (Executor.select ~mode:Executor.Tax seo coll ~pattern:q.Workload.pattern
               ~sl:q.Workload.sl));
      ("select-scal", runs, fun () ->
          ignore
            (Executor.select ~mode:Executor.Toss seo coll ~pattern:sel_pattern
               ~sl:sel_sl));
      ("join", runs, fun () ->
          ignore
            (Executor.join ~mode:Executor.Toss join_seo left right
               ~pattern:join_pattern ~sl:join_sl));
      ("join-eq-planned", runs, fun () ->
          ignore
            (Executor.join ~mode:Executor.Tax eq_seo eq_coll eq_coll
               ~pattern:eq_pattern ~sl:eq_sl));
      ("join-eq-naive", runs, fun () ->
          ignore
            (self_join_plan ~mode:Rewrite.Tax ~optimize:false eq_seo eq_coll
               ~pattern:eq_pattern ~sl:eq_sl));
      ("join-sim", runs, fun () -> ignore (simk_sim ()));
      (* One measured sweep: 10^8 predicate evaluations make this a
         multi-second kernel whose variance is negligible at that scale;
         a median over repeats would only slow the suite. The
         witness-equality check above already served as its warm-up. *)
      ("join-sim-naive", 1, fun () -> ignore (simk_naive ()));
      ("match-compiled", runs, fun () ->
          ignore
            (Executor.select ~mode:Executor.Toss m_seo m_coll ~pattern:sel_pattern
               ~sl:sel_sl));
      ("match-interpreted", runs, fun () ->
          ignore
            (Executor.select ~mode:Executor.Toss ~compile:false m_seo m_coll
               ~pattern:sel_pattern ~sl:sel_sl));
      ("xpath-eval", runs, fun () ->
          ignore (Collection.Snapshot.eval_string coll "//inproceedings[booktitle='VLDB']/author"));
      ("sea-enhance", runs, fun () ->
          ignore (Sea.enhance ~metric:Levenshtein.metric ~eps:2.0 sea_h));
      (* Server kernels: the same query through the engine, uncached vs a
         cache hit. The per-kernel warm-up call below pays the SEO
         precompute (uncached) and populates the cache (cached), so the
         measured runs are a pure miss-path / hit-path comparison. *)
      ("serve-uncached", runs, fun () -> ignore (serve_query ~cache:false srv));
      (* A single hit is ~1us -- far too small for a stable median under
         a 20% gate -- so the kernel measures a batch of 500. *)
      ("serve-cached", runs, fun () ->
          for _ = 1 to 500 do ignore (serve_query srv) done);
      (* The parallel read path: 8 uncached queries spread over 4 worker
         domains, all pinning snapshots of the same collection. On one
         core this is the serial cost of 8 queries; on many it shrinks
         toward 2x one query -- either way a regression here means the
         read path started contending. *)
      (* One uncached round trip through the router: JSON framing both
         hops, scatter to both shards, canonical-merge of the answers.
         Compare with serve-uncached (same corpus and query, engine
         only) to read off the serving tier's overhead. *)
      ("serve-sharded", runs, fun () ->
          match Client.call shk_conn shk_query with
          | Ok _ -> ()
          | Error f ->
              failwith ("serve-sharded kernel: " ^ Client.failure_to_string f));
      ("serve-par4", runs, fun () ->
          let domains =
            List.init 4 (fun _ ->
                Domain.spawn (fun () ->
                    for _ = 1 to 2 do ignore (serve_query ~cache:false srv) done))
          in
          List.iter Domain.join domains);
    ]
  in
  let entries =
    List.map
      (fun (name, runs, kernel) ->
        (* Start every kernel from a compacted heap: the pairing sweeps
           above leave tens of MB of floating garbage whose collection
           would otherwise be billed to whichever kernel runs next. *)
        Gc.compact ();
        (* Warm caches and indexes out of the measurement; single-run
           kernels are whole-second sweeps already warmed above. *)
        if runs > 1 then kernel ();
        let (), median_s = B.time_median ~runs kernel in
        let median_s = median_s *. slowdown in
        Printf.printf "  %-16s median %10.3f ms over %d runs\n" name
          (1000. *. median_s) runs;
        (name, { Baseline.median_s; runs }))
      kernels
  in
  Client.close shk_conn;
  shk_stop_router ();
  shk_stop1 ();
  shk_stop2 ();
  Baseline.v ~label:baseline_label entries

(* [--quick]: run the suite and record BENCH_8.json (or --out FILE).
   [--quick --check]: run the suite, save the current measurements to
   bench_results/ (never clobbering the committed baseline), and exit
   non-zero when the gate fails. [--slowdown F] multiplies the measured
   medians -- a self-test hook so the gate's failure path can be
   exercised deterministically ([--check --slowdown 2] must fail). *)
let gate ~check ~baseline_path ~out ~tolerance ~slowdown () =
  let current = perf_suite ~slowdown () in
  if not check then begin
    let path = Option.value out ~default:default_baseline_path in
    Baseline.save ~path current;
    Printf.printf "baseline recorded: %s\n" path;
    0
  end
  else
    match Baseline.load ~path:baseline_path with
    | Error msg ->
        Printf.eprintf "cannot load baseline %s: %s\n" baseline_path msg;
        1
    | Ok baseline ->
        let out_path =
          Option.value out ~default:(Filename.concat results_dir "bench_current.json")
        in
        (match Sys.is_directory results_dir with
        | true -> ()
        | false | (exception Sys_error _) -> Sys.mkdir results_dir 0o755);
        Baseline.save ~path:out_path current;
        let verdicts, ok = Baseline.compare_runs ~tolerance ~baseline ~current () in
        Printf.printf "\ngate (tolerance %+.0f%%) against %s:\n"
          (100. *. tolerance) baseline_path;
        Format.printf "%a@." Baseline.pp_verdicts verdicts;
        Printf.printf "current run saved: %s\n" out_path;
        if ok then begin
          Printf.printf "gate: PASS\n";
          0
        end
        else begin
          Printf.printf "gate: FAIL (median latency regressed beyond tolerance)\n";
          1
        end

(* ------------------------------------------------------------------ *)
(* Driver                                                                *)
(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig15a", fig15a);
    ("fig15b", fig15b);
    ("fig15c", fig15c);
    ("fig16a", fig16a);
    ("fig16b", fig16b);
    ("fig16c", fig16c);
    ("abl-sea", abl_sea);
    ("abl-fuse", abl_fuse);
    ("abl-idx", abl_idx);
    ("abl-plan", abl_plan);
    ("abl-compile", abl_compile);
    ("abl-simjoin", abl_simjoin);
    ("serve-cache", serve_cache);
    ("serve-parallel", serve_parallel);
    ("serve-sharded", serve_sharded);
    ("micro", micro);
  ]

let usage () =
  Printf.eprintf
    "usage: bench [EXPERIMENT...]\n\
    \       bench --quick [--out FILE]                 record BENCH_8.json\n\
    \       bench --quick --check [--baseline FILE]    gate against a baseline\n\
    \            [--tolerance X] [--slowdown F] [--out FILE]\n\
     experiments: %s\n"
    (String.concat ", " (List.map fst experiments))

let () =
  let quick = ref false in
  let check = ref false in
  let baseline_path = ref default_baseline_path in
  let out = ref None in
  let tolerance = ref 0.2 in
  let slowdown = ref 1.0 in
  let names = ref [] in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest -> quick := true; parse rest
    | "--check" :: rest -> quick := true; check := true; parse rest
    | "--baseline" :: path :: rest -> baseline_path := path; parse rest
    | "--out" :: path :: rest -> out := Some path; parse rest
    | "--tolerance" :: x :: rest -> tolerance := float_of_string x; parse rest
    | "--slowdown" :: f :: rest -> slowdown := float_of_string f; parse rest
    | ("--help" | "-h") :: _ -> usage (); exit 0
    | arg :: _ when String.length arg > 0 && arg.[0] = '-' ->
        Printf.eprintf "unknown option %S\n" arg;
        usage ();
        exit 1
    | name :: rest -> names := name :: !names; parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !quick then
    exit
      (gate ~check:!check ~baseline_path:!baseline_path ~out:!out
         ~tolerance:!tolerance ~slowdown:!slowdown ())
  else begin
    let requested =
      match List.rev !names with [] -> List.map fst experiments | names -> names
    in
    List.iter
      (fun name ->
        match List.assoc_opt name experiments with
        | Some f ->
            let (), t = B.time f in
            Printf.printf "[%s completed in %.1fs]\n" name t
        | None ->
            Printf.eprintf "unknown experiment %S; available: %s\n" name
              (String.concat ", " (List.map fst experiments));
            exit 1)
      requested
  end
