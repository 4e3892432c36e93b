(* The [toss] command-line tool: generate bibliographic data, inspect
   documents and their ontologies, and run XPath or TQL queries under the
   TAX or TOSS semantics.

     toss generate --papers 100 --schema dblp -o dblp.xml
     toss info dblp.xml
     toss xpath dblp.xml "//inproceedings[booktitle='VLDB']/title"
     toss ontology dblp.xml --relation part-of
     toss clusters dblp.xml --eps 2
     toss query dblp.xml 'MATCH #1:inproceedings(/#2:author)
                          WHERE #2.content ~ "Jeffrey D. Ullman" SELECT #1'
*)

module Tree = Toss_xml.Tree
module Doc = Tree.Doc
module Parser = Toss_xml.Parser
module Printer = Toss_xml.Printer
module Collection = Toss_store.Collection
module Hierarchy = Toss_hierarchy.Hierarchy
module Node = Toss_hierarchy.Node
module Ontology = Toss_ontology.Ontology
module Maker = Toss_ontology.Maker
module Sea = Toss_similarity.Sea
module Seo = Toss_core.Seo
module Executor = Toss_core.Executor
module Tql = Toss_core.Tql
module Corpus = Toss_data.Corpus
module Workload = Toss_data.Workload

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_doc path =
  match Parser.parse (read_file path) with
  | Ok tree -> tree
  | Error e ->
      Format.eprintf "%s: %a@." path Parser.pp_error e;
      exit 1

let write_out output content =
  match output with
  | None -> print_string content
  | Some path ->
      let oc = open_out_bin path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc content)

(* ---------------------------- generate ---------------------------- *)

let generate papers seed schema output =
  let corpus = Corpus.generate ~seed ~n_papers:papers () in
  (match schema with
  | "dblp" ->
      let rendered = Toss_data.Dblp_gen.render ~seed corpus in
      write_out output (Printer.to_pretty_string ~decl:true rendered.Toss_data.Dblp_gen.tree)
  | "sigmod" ->
      let rendered = Toss_data.Sigmod_gen.render ~seed corpus in
      let body =
        String.concat "\n"
          (List.map Printer.to_pretty_string rendered.Toss_data.Sigmod_gen.trees)
      in
      write_out output ("<pages>\n" ^ body ^ "</pages>\n")
  | other ->
      Format.eprintf "unknown schema %S (expected dblp or sigmod)@." other;
      exit 1);
  `Ok ()

let generate_cmd =
  let papers =
    Arg.(value & opt int 100 & info [ "papers"; "n" ] ~docv:"N" ~doc:"Number of papers.")
  in
  let seed = Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.") in
  let schema =
    Arg.(value & opt string "dblp" & info [ "schema" ] ~docv:"SCHEMA"
           ~doc:"Output schema: dblp or sigmod.")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Output file (stdout if omitted).")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a synthetic bibliography with ground truth.")
    Term.(ret (const generate $ papers $ seed $ schema $ output))

(* ------------------------------ info ------------------------------ *)

let info_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let run file =
    let tree = load_doc file in
    let doc = Doc.of_tree tree in
    Printf.printf "root tag:  %s\n" (Doc.tag doc (Doc.root doc));
    Printf.printf "elements:  %d\n" (Doc.size doc);
    Printf.printf "bytes:     %d\n" (Printer.byte_size tree);
    Printf.printf "tags:      %s\n" (String.concat ", " (Doc.tags doc));
    `Ok ()
  in
  Cmd.v (Cmd.info "info" ~doc:"Show statistics of an XML document.")
    Term.(ret (const run $ file))

(* ----------------------------- xpath ------------------------------ *)

let xpath_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let query = Arg.(required & pos 1 (some string) None & info [] ~docv:"XPATH") in
  let run file query =
    let tree = load_doc file in
    let c = Collection.create "cli" in
    ignore (Collection.add_document c tree);
    match Toss_store.Xpath_parser.parse query with
    | Error msg -> `Error (false, "XPath syntax error " ^ msg)
    | Ok q ->
        let hits = Collection.eval c q in
        Printf.printf "%d node(s)\n" (List.length hits);
        List.iter
          (fun t -> print_string (Printer.to_pretty_string t))
          (Collection.subtrees c hits);
        `Ok ()
  in
  Cmd.v (Cmd.info "xpath" ~doc:"Evaluate an XPath query against a document.")
    Term.(ret (const run $ file $ query))

(* ---------------------------- ontology ---------------------------- *)

let ontology_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let relation =
    Arg.(value & opt string "isa" & info [ "relation" ] ~docv:"REL"
           ~doc:"Relation to print: isa or part-of.")
  in
  let run file relation =
    let tree = load_doc file in
    let o = Maker.make (Doc.of_tree tree) in
    let rel = if relation = "part-of" then Ontology.part_of else Ontology.isa in
    let h = Ontology.get rel o in
    Printf.printf "%s hierarchy: %d nodes, %d edges\n" relation (Hierarchy.n_nodes h)
      (Hierarchy.n_edges h);
    List.iter
      (fun (lo, hi) -> Printf.printf "  %s <= %s\n" (Node.to_string lo) (Node.to_string hi))
      (Hierarchy.edges h);
    `Ok ()
  in
  Cmd.v
    (Cmd.info "ontology"
       ~doc:"Run the Ontology Maker on a document and print a hierarchy.")
    Term.(ret (const run $ file $ relation))

(* ---------------------------- clusters ---------------------------- *)

let clusters_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let eps =
    Arg.(value & opt float 2.0 & info [ "eps" ] ~docv:"EPS"
           ~doc:"Similarity threshold for the SEA algorithm.")
  in
  let run file eps =
    let tree = load_doc file in
    let o = Maker.make (Doc.of_tree tree) in
    let isa = Ontology.get Ontology.isa o in
    (match Sea.enhance ~metric:Workload.experiment_metric ~eps isa with
    | None -> Printf.printf "similarity inconsistent at eps = %g\n" eps
    | Some e ->
        let multi = List.filter (fun c -> Node.cardinal c > 1) (Sea.clusters e) in
        Printf.printf "%d multi-term clusters at eps = %g:\n" (List.length multi) eps;
        List.iter
          (fun c -> Printf.printf "  { %s }\n" (String.concat " | " (Node.strings c)))
          multi);
    `Ok ()
  in
  Cmd.v
    (Cmd.info "clusters"
       ~doc:"Show the similarity-enhanced ontology's term clusters.")
    Term.(ret (const run $ file $ eps))

(* ------------------------------ dot ------------------------------- *)

let dot_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let relation =
    Arg.(value & opt string "isa" & info [ "relation" ] ~docv:"REL"
           ~doc:"Relation to export: isa or part-of.")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Output .dot file (stdout if omitted).")
  in
  let run file relation output =
    let tree = load_doc file in
    let o = Maker.make (Doc.of_tree tree) in
    let rel = if relation = "part-of" then Ontology.part_of else Ontology.isa in
    write_out output (Hierarchy.to_dot ~name:relation (Ontology.get rel o));
    `Ok ()
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Export a document's ontology hierarchy as Graphviz.")
    Term.(ret (const run $ file $ relation $ output))

(* ----------------------------- query ------------------------------ *)

(* The per-phase breakdown, printed from the trace; because the stats
   phases are themselves a view over the same trace, the totals shown
   here agree with [Executor.total_s stats.phases] exactly. *)
let print_phase_table oc (stats : Executor.stats) =
  let total = Executor.total_s stats.Executor.phases in
  let share s = if total > 0. then 100. *. s /. total else 0. in
  Printf.fprintf oc "phase breakdown:\n";
  Printf.fprintf oc "  %-10s %12s %7s\n" "phase" "seconds" "share";
  List.iter
    (fun (name, s) ->
      Printf.fprintf oc "  %-10s %12.6f %6.1f%%\n" name s (share s))
    [
      ("rewrite", stats.Executor.phases.Executor.rewrite_s);
      ("execute", stats.Executor.phases.Executor.execute_s);
      ("assemble", stats.Executor.phases.Executor.assemble_s);
    ];
  Printf.fprintf oc "  %-10s %12.6f\n" "total" total

let print_trace oc (stats : Executor.stats) =
  print_phase_table oc stats;
  Printf.fprintf oc "trace:\n%s" (Toss_obs.Span.to_string stats.Executor.trace)

(* [--slow-ms]: one slow-query record (the executor's span tree) on
   stderr when the run took at least the threshold. *)
let log_slow slow_ms (stats : Executor.stats) =
  Option.iter
    (fun ms ->
      Option.iter prerr_endline
        (Toss_obs.Span.slow_record ~threshold_s:(float_of_int ms /. 1000.)
           stats.Executor.trace))
    slow_ms

let query files right query mode eps show_xpath explain no_compile trace
    show_stats explain_analyze analyze_json slow_ms =
  (* EXPLAIN ANALYZE implies tracing: the analyzed plan is the span tree
     with its per-operator actuals (and allocation deltas). *)
  if trace || explain_analyze || analyze_json <> None then
    Toss_obs.Span.set_enabled true;
  let trees = List.map load_doc files in
  let c = Collection.create "cli" in
  List.iter (fun t -> ignore (Collection.add_document c t)) trees;
  let coll = Collection.snapshot c in
  (* [--right FILE] turns the query into a condition join: the
     positional FILEs are the left collection, [FILE] the right one, and
     the pattern root's two children are matched one per side. *)
  let right_trees = List.map load_doc right in
  let right_coll =
    match right_trees with
    | [] -> None
    | ts ->
        let rc = Collection.create "cli-right" in
        List.iter (fun t -> ignore (Collection.add_document rc t)) ts;
        Some (Collection.snapshot rc)
  in
  match Tql.parse query with
  | Error msg -> `Error (false, "TQL syntax error: " ^ msg)
  | Ok q -> (
      let docs = List.map Doc.of_tree (trees @ right_trees) in
      match Seo.of_documents ~metric:Workload.experiment_metric ~eps docs with
      | Error msg -> `Error (false, msg)
      | Ok seo -> (
          match right_coll with
          | Some rcoll -> (
              (* Join path: EXPLAIN prints the physical plan (pairing
                 strategy included); otherwise execute and report like a
                 selection. *)
              match q.Tql.target with
              | Tql.Project _ -> `Error (false, "toss query --right: SELECT queries only")
              | Tql.Select sl ->
                  if explain then begin
                    let plan =
                      Toss_core.Planner.plan_join ~mode ~compile:(not no_compile)
                        seo coll rcoll ~pattern:q.Tql.pattern ~sl
                    in
                    print_string "EXPLAIN\n";
                    print_string (Toss_core.Plan.to_string plan);
                    print_newline ();
                    `Ok ()
                  end
                  else begin
                    let results, stats =
                      Executor.join ~mode ~compile:(not no_compile) seo coll
                        rcoll ~pattern:q.Tql.pattern ~sl
                    in
                    log_slow slow_ms stats;
                    Printf.printf "%d result(s) in %.4fs\n" (List.length results)
                      (Executor.total_s stats.Executor.phases);
                    List.iter
                      (fun t -> print_string (Printer.to_pretty_string t))
                      results;
                    if trace then print_trace stdout stats;
                    (* A join has no single rewrite to explain: its
                       analyzed plan is the span tree alone. *)
                    if explain_analyze then begin
                      print_string "EXPLAIN ANALYZE\n";
                      print_string (Toss_obs.Span.to_string stats.Executor.trace)
                    end;
                    Option.iter
                      (fun path ->
                        write_out (Some path)
                          (Toss_obs.Span.to_json stats.Executor.trace ^ "\n"))
                      analyze_json;
                    if show_stats then
                      print_string
                        (Toss_obs.Metrics.to_table (Toss_obs.Metrics.snapshot ()));
                    `Ok ()
                  end)
          | None ->
          if show_xpath then
            prerr_endline
              (Toss_core.Explain.to_string
                 (Toss_core.Explain.explain ~mode seo q.Tql.pattern));
          (match q.Tql.target with
          | Tql.Project _ when explain ->
              prerr_endline "toss query --explain: SELECT queries only \
                             (projections bypass the planner)"
          | Tql.Select sl when explain ->
              (* EXPLAIN without ANALYZE: build the plan (rewrite +
                 statistics only) and show it without executing. *)
              let plan =
                Toss_core.Planner.plan_select ~mode ~compile:(not no_compile)
                  seo coll ~pattern:q.Tql.pattern ~sl
              in
              let e =
                Toss_core.Explain.with_plan
                  (Toss_core.Explain.explain ~mode seo q.Tql.pattern)
                  plan
              in
              print_string "EXPLAIN\n";
              print_string (Toss_core.Explain.to_string e)
          | Tql.Project pl ->
              (* Projections run through the in-memory algebra. *)
              let eval =
                match mode with
                | Executor.Tax -> Toss_tax.Condition.eval_tax
                | Executor.Toss -> Toss_core.Toss_condition.evaluator seo
              in
              let results =
                Toss_tax.Algebra.project ~eval ~pattern:q.Tql.pattern ~pl trees
              in
              Printf.printf "%d result(s)\n" (List.length results);
              List.iter (fun t -> print_string (Printer.to_pretty_string t)) results
          | Tql.Select sl ->
              let results, stats =
                Executor.select ~mode ~compile:(not no_compile) seo coll
                  ~pattern:q.Tql.pattern ~sl
              in
              log_slow slow_ms stats;
              Printf.printf "%d result(s) in %.4fs\n" (List.length results)
                (Executor.total_s stats.Executor.phases);
              List.iter (fun t -> print_string (Printer.to_pretty_string t)) results;
              (* Observability output goes to stdout, like the results it
                 annotates (and like [toss stats]); stderr is reserved
                 for errors and the slow-query log. *)
              if trace then print_trace stdout stats;
              if explain_analyze || analyze_json <> None then begin
                let plan =
                  Toss_core.Explain.with_trace
                    (Toss_core.Explain.explain ~mode seo q.Tql.pattern)
                    stats.Executor.trace
                in
                if explain_analyze then begin
                  print_string "EXPLAIN ANALYZE\n";
                  print_string (Toss_core.Explain.to_string plan)
                end;
                Option.iter
                  (fun path ->
                    write_out (Some path) (Toss_core.Explain.to_json plan ^ "\n"))
                  analyze_json
              end);
          if show_stats then
            print_string (Toss_obs.Metrics.to_table (Toss_obs.Metrics.snapshot ()));
          `Ok ()))

let query_cmd =
  let files =
    Arg.(non_empty & pos_left ~rev:true 0 file [] & info [] ~docv:"FILE")
  in
  let q = Arg.(required & pos ~rev:true 0 (some string) None & info [] ~docv:"TQL") in
  let right =
    Arg.(value & opt_all file [] & info [ "right" ] ~docv:"FILE"
           ~doc:"Run a condition join: the positional files are the left \
                 collection, the $(docv)s (repeatable) the right one. The \
                 pattern root's two children are matched one per \
                 collection; cross conditions (including $(b,~)/$(b,isa) \
                 atoms) relate them.")
  in
  let mode =
    Arg.(value
         & opt (enum [ ("toss", Executor.Toss); ("tax", Executor.Tax) ]) Executor.Toss
         & info [ "mode" ] ~docv:"MODE" ~doc:"Semantics: toss (default) or tax.")
  in
  let eps =
    Arg.(value & opt float 2.0 & info [ "eps" ] ~docv:"EPS"
           ~doc:"Similarity threshold.")
  in
  let show_xpath =
    Arg.(value & flag & info [ "show-xpath" ]
           ~doc:"Print the rewritten XPath queries to stderr.")
  in
  let explain =
    Arg.(value & flag & info [ "explain" ]
           ~doc:"Show the query plan without executing it: the rewritten \
                 store queries, the physical operator tree with the \
                 planner's estimated cardinalities, scan order, pruning \
                 and join strategy.")
  in
  let no_compile =
    Arg.(value & flag & info [ "no-compile" ]
           ~doc:"Disable pattern compilation: run the paper's \
                 rewrite-to-XPath pipeline (planned store scans, \
                 candidate-document pruning, per-document embedding) \
                 instead of the single-pass compiled matcher. Results \
                 are identical; only the work differs.")
  in
  let trace =
    Arg.(value & flag & info [ "trace" ]
           ~doc:"Print the per-phase breakdown and the nested execution \
                 span tree (with allocation deltas) after the results.")
  in
  let show_stats =
    Arg.(value & flag & info [ "stats" ]
           ~doc:"Print the metrics-registry snapshot (index hit rates, \
                 rewrite fan-out, embedding counts) after the results.")
  in
  let explain_analyze =
    Arg.(value & flag & info [ "explain-analyze" ]
           ~doc:"Run the query, then print the plan annotated with \
                 per-operator actuals: rows in/out of every rewritten \
                 XPath step, per-document embedding counts, and wall \
                 time per phase.")
  in
  let analyze_json =
    Arg.(value & opt (some string) None & info [ "analyze-json" ] ~docv:"FILE"
           ~doc:"Write the analyzed plan (as printed by \
                 $(b,--explain-analyze)) as JSON to $(docv). For a join \
                 ($(b,--right)) that is the span tree alone.")
  in
  let slow_ms =
    Arg.(value & opt (some int) None & info [ "slow-ms" ] ~docv:"MS"
           ~doc:"Slow-query log: if the query takes at least $(docv) \
                 milliseconds, write one JSON record with its span tree \
                 to stderr.")
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Run a TQL pattern-tree query over one or more documents.")
    Term.(ret
            (const query $ files $ right $ q $ mode $ eps $ show_xpath $ explain
             $ no_compile $ trace $ show_stats $ explain_analyze $ analyze_json
             $ slow_ms))

(* ----------------------------- stats ------------------------------ *)

(* [toss stats] = run a selection with tracing on and report only the
   observability side: phase table, span tree, metrics snapshot. *)
let stats_run files query mode eps =
  Toss_obs.Span.set_enabled true;
  let trees = List.map load_doc files in
  let c = Collection.create "cli" in
  List.iter (fun t -> ignore (Collection.add_document c t)) trees;
  let coll = Collection.snapshot c in
  match Tql.parse query with
  | Error msg -> `Error (false, "TQL syntax error: " ^ msg)
  | Ok q -> (
      let docs = List.map Doc.of_tree trees in
      match Seo.of_documents ~metric:Workload.experiment_metric ~eps docs with
      | Error msg -> `Error (false, msg)
      | Ok seo -> (
          match q.Tql.target with
          | Tql.Project _ -> `Error (false, "toss stats: SELECT queries only")
          | Tql.Select sl ->
              let results, stats =
                Executor.select ~mode seo coll ~pattern:q.Tql.pattern ~sl
              in
              Printf.printf "%d result(s): %d candidate(s) -> %d embedding(s) -> %d witness(es)\n"
                (List.length results) stats.Executor.n_candidates
                stats.Executor.n_embeddings stats.Executor.n_results;
              print_trace stdout stats;
              print_string "metrics:\n";
              print_string
                (Toss_obs.Metrics.to_table (Toss_obs.Metrics.snapshot ()));
              `Ok ()))

let stats_cmd =
  let files =
    Arg.(non_empty & pos_left ~rev:true 0 file [] & info [] ~docv:"FILE")
  in
  let q = Arg.(required & pos ~rev:true 0 (some string) None & info [] ~docv:"TQL") in
  let mode =
    Arg.(value
         & opt (enum [ ("toss", Executor.Toss); ("tax", Executor.Tax) ]) Executor.Toss
         & info [ "mode" ] ~docv:"MODE" ~doc:"Semantics: toss (default) or tax.")
  in
  let eps =
    Arg.(value & opt float 2.0 & info [ "eps" ] ~docv:"EPS"
           ~doc:"Similarity threshold.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Run a TQL selection and report its trace and metrics instead \
             of its results.")
    Term.(ret (const stats_run $ files $ q $ mode $ eps))

(* ----------------------------- serve ------------------------------ *)

let serve_run listen db domains max_queue default_deadline_ms no_cache
    cache_capacity eps slow_ms access_log trace_sample =
  if domains < 0 then `Error (true, "--domains must be >= 0")
  else if max_queue < 0 then `Error (true, "--max-queue must be >= 0")
  else if trace_sample < 0 then `Error (true, "--trace-sample must be >= 0")
  else begin
    let cache_capacity = if no_cache then 0 else cache_capacity in
    match
      (* The same composite measure one-shot [toss query] uses, so a
         served query returns the same answers as the CLI. *)
      Toss_server.Engine.create ?db_dir:db ~metric:Workload.experiment_metric
        ~eps ~cache_capacity ()
    with
    | Error msg -> `Error (false, msg)
    | Ok engine -> (
        let config =
          {
            Toss_server.Server.listen;
            domains;
            max_queue;
            default_deadline_ms;
            access_log;
            trace_sample;
            slow_ms;
          }
        in
        let ready resolved =
          Printf.printf
            "toss serve: listening on %s (domains=%d, queue=%d, cache=%d)\n%!"
            resolved domains max_queue cache_capacity
        in
        match
          Toss_server.Server.run ~ready config
            (Toss_server.Engine.exec_traced engine)
        with
        | Ok () ->
            print_endline "toss serve: stopped";
            `Ok ()
        | Error msg -> `Error (false, msg))
  end

(* [--socket] of [serve] and [router]: any {!Toss_server.Transport.parse}
   address, as [client], [loadgen] and [--shard] take. *)
let listen_arg =
  let addr =
    Arg.conv'
      ( Toss_server.Transport.parse,
        fun ppf a ->
          Format.pp_print_string ppf (Toss_server.Transport.to_string a) )
  in
  Arg.(required & opt (some addr) None & info [ "socket" ] ~docv:"ADDR"
         ~doc:"Address to listen on: a Unix-domain socket path, \
               $(b,unix:PATH), or $(b,tcp:HOST:PORT) (port 0 picks a free \
               port, printed on startup).")

let serve_cmd =
  let db =
    Arg.(value & opt (some string) None & info [ "db" ] ~docv:"DIR"
           ~doc:"Database directory: hydrate collections from it on start \
                 and append every insert to it (created if missing).")
  in
  let domains =
    Arg.(value & opt int 4 & info [ "domains" ] ~docv:"N"
           ~doc:"Worker domains executing queued requests in parallel.")
  in
  let max_queue =
    Arg.(value & opt int 64 & info [ "max-queue" ] ~docv:"N"
           ~doc:"Admission-control queue bound; requests beyond it are shed \
                 with the typed $(b,overloaded) error.")
  in
  let default_deadline_ms =
    Arg.(value & opt (some int) None & info [ "default-deadline-ms" ] ~docv:"MS"
           ~doc:"Deadline applied to requests that carry none.")
  in
  let no_cache =
    Arg.(value & flag & info [ "no-cache" ]
           ~doc:"Disable the versioned query-result cache.")
  in
  let cache_capacity =
    Arg.(value & opt int 256 & info [ "cache-capacity" ] ~docv:"N"
           ~doc:"Result-cache entry bound (FIFO eviction).")
  in
  let eps =
    Arg.(value & opt float 2.0 & info [ "eps" ] ~docv:"EPS"
           ~doc:"Similarity threshold of the serving session.")
  in
  let slow_ms =
    Arg.(value & opt (some int) None & info [ "slow-ms" ] ~docv:"MS"
           ~doc:"Slow-query log: write one JSON record (the span tree, \
                 keyed by the request's trace id) to stderr per executed \
                 query or join at or over $(docv) milliseconds.")
  in
  let access_log =
    Arg.(value & opt (some string) None & info [ "access-log" ] ~docv:"FILE"
           ~doc:"Append one JSON record per request to $(docv): trace id, \
                 op, collection+version, cache status, queue-wait and \
                 execution seconds, worker domain, status.")
  in
  let trace_sample =
    Arg.(value & opt int 0 & info [ "trace-sample" ] ~docv:"N"
           ~doc:"Record the full span tree into the access log for every \
                 $(docv)th pooled request (head-based sampling; 0 records \
                 none).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve collections over a Unix-domain socket or TCP: a \
             newline-delimited JSON protocol (with a binary framed \
             alternative negotiated per connection) with a worker pool, \
             per-request deadlines, admission control and a versioned \
             result cache.")
    Term.(ret
            (const serve_run $ listen_arg $ db $ domains $ max_queue
             $ default_deadline_ms $ no_cache $ cache_capacity $ eps $ slow_ms
             $ access_log $ trace_sample))

(* ----------------------------- client ----------------------------- *)

let client_run socket codec allow_partial op arg1 arg2 arg3 mode no_cache
    deadline_ms trace_id table =
  let need2 what k =
    match (arg1, arg2) with
    | Some a, Some b -> k a b
    | _ -> Error (Printf.sprintf "%s needs %s" op what)
  in
  let need3 what k =
    match (arg1, arg2, arg3) with
    | Some a, Some b, Some c -> k a b c
    | _ -> Error (Printf.sprintf "%s needs %s" op what)
  in
  let request =
    match op with
    | "ping" -> Ok Toss_server.Protocol.Ping
    | "stats" -> Ok Toss_server.Protocol.Stats
    | "metrics" -> Ok Toss_server.Protocol.Metrics
    | "shutdown" -> Ok Toss_server.Protocol.Shutdown
    | "insert" ->
        need2 "COLLECTION and an XML FILE" (fun collection file ->
            if Sys.file_exists file then
              Ok (Toss_server.Protocol.Insert { collection; xml = read_file file })
            else Error (Printf.sprintf "no such file: %s" file))
    | "query" ->
        need2 "COLLECTION and TQL" (fun collection tql ->
            Ok
              (Toss_server.Protocol.Query
                 { collection; tql; mode; cache = not no_cache }))
    | "join" ->
        need3 "LEFT, RIGHT and TQL" (fun left right tql ->
            Ok (Toss_server.Protocol.Join { left; right; tql; mode }))
    | "explain" ->
        need2 "COLLECTION and TQL" (fun collection tql ->
            Ok (Toss_server.Protocol.Explain { collection; tql; mode }))
    | other ->
        Error
          (Printf.sprintf
             "unknown op %S (expected ping, insert, query, join, explain, \
              stats, metrics or shutdown)"
             other)
  in
  match request with
  | Error msg -> `Error (true, msg)
  | Ok request -> (
      match Toss_server.Client.connect ~codec socket with
      | Error msg -> `Error (false, msg)
      | Ok conn -> (
          let result =
            Toss_server.Client.call conn ?deadline_ms ?trace_id ~allow_partial
              request
          in
          Toss_server.Client.close conn;
          match result with
          | Ok payload ->
              (* [--table] renders the human form of a stats payload;
                 [metrics] prints the raw Prometheus exposition (the
                 scrape format — curl-pipe friendly); everything else
                 prints the result as one JSON line. *)
              (match
                 if table then
                   Option.bind (Toss_json.member "table" payload) Toss_json.to_str
                 else if op = "metrics" then
                   Option.bind (Toss_json.member "prometheus" payload)
                     Toss_json.to_str
                 else None
               with
              | Some text -> print_string text
              | None -> print_endline (Toss_json.to_string payload));
              `Ok ()
          | Error (Toss_server.Client.Wire e) ->
              Printf.eprintf "error %s: %s\n"
                (Toss_server.Protocol.code_name e.Toss_server.Protocol.code)
                e.Toss_server.Protocol.message;
              exit 1
          | Error (Toss_server.Client.Transport msg) -> `Error (false, msg)))

let codec_arg =
  Arg.(value
       & opt
           (enum
              [
                ("json", Toss_server.Protocol.Json);
                ("binary", Toss_server.Protocol.Binary);
              ])
           Toss_server.Protocol.Json
       & info [ "codec" ] ~docv:"CODEC"
           ~doc:"Wire codec: $(b,json) (newline-delimited, default) or \
                 $(b,binary) (length-prefixed frames).")

let client_cmd =
  let socket =
    Arg.(required & opt (some string) None & info [ "socket" ] ~docv:"ADDR"
           ~doc:"Server address: a Unix-domain socket path, \
                 $(b,unix:PATH), or $(b,tcp:HOST:PORT).")
  in
  let allow_partial =
    Arg.(value & flag & info [ "allow-partial" ]
           ~doc:"Against $(b,toss router): accept a merged answer from the \
                 reachable shards when some shard is down, instead of the \
                 $(b,shard_unavailable) error.")
  in
  let op =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OP"
           ~doc:"One of ping, insert, query, join, explain, stats, metrics, \
                 shutdown. $(b,join) takes LEFT RIGHT TQL; $(b,metrics) \
                 prints the server's Prometheus text exposition.")
  in
  let arg1 = Arg.(value & pos 1 (some string) None & info [] ~docv:"COLLECTION") in
  let arg2 = Arg.(value & pos 2 (some string) None & info [] ~docv:"ARG") in
  let arg3 = Arg.(value & pos 3 (some string) None & info [] ~docv:"ARG2") in
  let mode =
    Arg.(value
         & opt (enum [ ("toss", Executor.Toss); ("tax", Executor.Tax) ]) Executor.Toss
         & info [ "mode" ] ~docv:"MODE" ~doc:"Semantics: toss (default) or tax.")
  in
  let no_cache =
    Arg.(value & flag & info [ "no-cache" ]
           ~doc:"Ask the server to bypass its result cache for this query.")
  in
  let deadline_ms =
    Arg.(value & opt (some int) None & info [ "deadline-ms" ] ~docv:"MS"
           ~doc:"Per-request deadline.")
  in
  let trace_id =
    Arg.(value & opt (some string) None & info [ "trace-id" ] ~docv:"ID"
           ~doc:"Trace id to stamp on the request (1-128 printable ASCII \
                 characters); the server echoes it and keys its logs by \
                 it. Generated server-side when omitted.")
  in
  let table =
    Arg.(value & flag & info [ "table" ]
           ~doc:"With $(b,stats): print the human-readable metrics table \
                 instead of JSON.")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Send one request to a running $(b,toss serve) or \
             $(b,toss router). For load, use $(b,toss loadgen).")
    Term.(ret
            (const client_run $ socket $ codec_arg $ allow_partial $ op $ arg1
             $ arg2 $ arg3 $ mode $ no_cache $ deadline_ms $ trace_id $ table))

(* ----------------------------- router ----------------------------- *)

let router_run listen shards replicate connect_retry_ms =
  match Toss_shard.Shard_map.make ~shards ~replicated:replicate with
  | Error msg -> `Error (true, msg)
  | Ok map -> (
      let router = Toss_shard.Router.create ~connect_retry_ms map in
      let config =
        {
          (Toss_server.Server.default_config ~listen) with
          domains = Toss_shard.Router.domains;
          max_queue = Toss_shard.Router.max_queue;
        }
      in
      let ready resolved =
        Printf.printf "toss router: listening on %s (shards=%d)\n%!" resolved
          (Toss_shard.Shard_map.n map)
      in
      let result =
        Toss_server.Server.run ~ready config (Toss_shard.Router.dispatch router)
      in
      Toss_shard.Router.close router;
      match result with
      | Ok () ->
          print_endline "toss router: stopped";
          `Ok ()
      | Error msg -> `Error (false, msg))

let router_cmd =
  let shards =
    Arg.(non_empty & opt_all string [] & info [ "shard" ] ~docv:"ADDR"
           ~doc:"Address of one shard server (repeatable, order defines \
                 shard numbering). Each shard is a plain $(b,toss serve).")
  in
  let replicate =
    Arg.(value & opt_all string [] & info [ "replicate" ] ~docv:"COLLECTION"
           ~doc:"Replicate $(docv) on every shard instead of partitioning \
                 it (repeatable). Joins are exact when at least one side \
                 is replicated.")
  in
  let connect_retry_ms =
    Arg.(value & opt int 1000 & info [ "connect-retry-ms" ] ~docv:"MS"
           ~doc:"Backoff budget when (re)connecting to a shard.")
  in
  Cmd.v
    (Cmd.info "router"
       ~doc:"Scatter-gather router over sharded $(b,toss serve) \
             instances, behind the same front end as $(b,toss serve) \
             with 2 worker domains: speaks the same wire protocol, \
             hash-partitions inserts, fans queries and joins out to every \
             shard and merges the answers (canonicalized multiset union), \
             with typed $(b,shard_unavailable) degradation and opt-in \
             partial results.")
    Term.(ret
            (const router_run $ listen_arg $ shards $ replicate
             $ connect_retry_ms))

(* ----------------------------- loadgen ---------------------------- *)

let loadgen_run socket codec collection requests qps concurrency seed papers
    zipf deadline_ms no_ingest allow_errors =
  if requests <= 0 then `Error (true, "--requests must be positive")
  else if qps <= 0. then `Error (true, "--qps must be positive")
  else begin
    let config =
      {
        Toss_shard.Loadgen.target = socket;
        codec;
        collection;
        requests;
        qps;
        concurrency;
        seed;
        n_papers = papers;
        zipf_s = zipf;
        deadline_ms;
      }
    in
    match Toss_shard.Loadgen.run ~ingest:(not no_ingest) config with
    | Error msg -> `Error (false, msg)
    | Ok report ->
        print_endline
          (Toss_json.to_string (Toss_shard.Loadgen.report_to_json report));
        if (not allow_errors) && Toss_shard.Loadgen.failed report then exit 1
        else `Ok ()
  end

let loadgen_cmd =
  let socket =
    Arg.(required & opt (some string) None & info [ "socket" ] ~docv:"ADDR"
           ~doc:"Server or router address: a Unix-domain socket path, \
                 $(b,unix:PATH), or $(b,tcp:HOST:PORT).")
  in
  let collection =
    Arg.(value & opt string "bib" & info [ "collection" ] ~docv:"NAME"
           ~doc:"Collection to ingest into and query.")
  in
  let requests =
    Arg.(value & opt int 400 & info [ "requests" ] ~docv:"N"
           ~doc:"Number of requests to offer.")
  in
  let qps =
    Arg.(value & opt float 200. & info [ "qps" ] ~docv:"QPS"
           ~doc:"Target offered load: Poisson arrivals at $(docv) \
                 requests/second, scheduled up front (open loop).")
  in
  let concurrency =
    Arg.(value & opt int 8 & info [ "concurrency" ] ~docv:"C"
           ~doc:"Worker threads (connections); bounds in-flight requests. \
                 Latency is still measured from each request's scheduled \
                 arrival, so worker starvation shows up as tail latency \
                 rather than vanishing.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N"
           ~doc:"Seed for the corpus, the query mix and the arrival \
                 process.")
  in
  let papers =
    Arg.(value & opt int 60 & info [ "papers" ] ~docv:"N"
           ~doc:"Corpus size to generate and ingest (one document per \
                 paper, split out by the streaming SAX selector).")
  in
  let zipf =
    Arg.(value & opt float 1.1 & info [ "zipf" ] ~docv:"S"
           ~doc:"Zipf exponent of the query-template popularity \
                 distribution (0 = uniform).")
  in
  let deadline_ms =
    Arg.(value & opt (some int) None & info [ "deadline-ms" ] ~docv:"MS"
           ~doc:"Per-request deadline.")
  in
  let no_ingest =
    Arg.(value & flag & info [ "no-ingest" ]
           ~doc:"Skip corpus ingest (the target already holds the corpus \
                 from an earlier run with the same seed).")
  in
  let allow_errors =
    Arg.(value & flag & info [ "allow-errors" ]
           ~doc:"Report request errors in the summary instead of exiting 1.")
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:"Open-loop load generator: ingest a deterministic corpus over \
             the wire, then offer a zipfian TQL query mix at a target QPS \
             with Poisson arrivals and report p50/p90/p99/p999 latency \
             measured from each request's scheduled arrival (no \
             coordinated omission).")
    Term.(ret
            (const loadgen_run $ socket $ codec_arg $ collection $ requests
             $ qps $ concurrency $ seed $ papers $ zipf $ deadline_ms
             $ no_ingest $ allow_errors))

let check_run seed runs op fault repro_out =
  match Toss_check.Harness.fault_of_string fault with
  | None ->
      `Error
        (true,
         Printf.sprintf "unknown fault %S (expected one of: %s)" fault
           (String.concat ", " Toss_check.Harness.fault_names))
  | Some fault ->
      let outcome =
        Toss_check.Harness.run ~fault ?op ~seed ~runs ()
      in
      Toss_check.Harness.report Format.std_formatter outcome;
      (match outcome with
      | Toss_check.Harness.Pass _ -> `Ok ()
      | Toss_check.Harness.Fail { failure; _ } ->
          (match repro_out with
          | None -> ()
          | Some path ->
              let oc = open_out path in
              output_string oc (Toss_check.Harness.repro failure);
              close_out oc;
              Printf.printf "repro written to %s\n" path);
          exit 1)

let check_cmd =
  let seed =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"N" ~doc:"Master seed for case generation.")
  in
  let runs =
    Arg.(value & opt int 200
         & info [ "runs" ] ~docv:"K" ~doc:"Number of random cases to check.")
  in
  let op =
    Arg.(value
         & opt (some (enum [ ("select", Toss_check.Gen.Select); ("join", Toss_check.Gen.Join) ]))
             None
         & info [ "op" ] ~docv:"OP"
             ~doc:"Restrict generated cases to one operator (select or join).")
  in
  let fault =
    Arg.(value & opt string "none"
         & info [ "inject-fault" ] ~docv:"FAULT"
             ~doc:"Inject a known engine fault (hash-no-recheck, \
                   prune-first-only, no-dedup, \
                   compile-skip-descendant-edge, simjoin-prefix-too-short, \
                   simjoin-no-recheck) to exercise the harness; it must \
                   be caught and shrunk.")
  in
  let repro_out =
    Arg.(value & opt (some string) None
         & info [ "repro-out" ] ~docv:"FILE"
             ~doc:"On failure, also write the paste-into-test repro here.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Differential correctness check: random queries and corpora, \
             every engine configuration against a naive reference oracle; \
             failures are shrunk to a minimal repro. Exits 1 on a \
             discrepancy.")
    Term.(ret (const check_run $ seed $ runs $ op $ fault $ repro_out))

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "toss" ~version:"1.0.0"
      ~doc:"TOSS: ontology- and similarity-aware queries over XML"
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [ generate_cmd; info_cmd; xpath_cmd; ontology_cmd; clusters_cmd; dot_cmd;
            query_cmd; stats_cmd; check_cmd; serve_cmd; client_cmd; router_cmd;
            loadgen_cmd ]))
