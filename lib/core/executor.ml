module Condition = Toss_tax.Condition
module Collection = Toss_store.Collection
module Xpath = Toss_store.Xpath
module Metrics = Toss_obs.Metrics
module Span = Toss_obs.Span
module Names = Toss_obs.Names

type mode = Rewrite.mode = Tax | Toss

type phases = { rewrite_s : float; execute_s : float; assemble_s : float }

type stats = {
  phases : phases;
  n_candidates : int;
  n_embeddings : int;
  n_results : int;
  queries : (int * string) list;
  trace : Span.t;
}

let total_s p = p.rewrite_s +. p.execute_s +. p.assemble_s

(* The phase record is a view over the span tree, so the per-phase
   breakdown printed from the trace and the [stats] fields agree by
   construction. *)
let phases_of_trace trace =
  let dur name =
    match Span.find trace name with Some s -> s.Span.elapsed_s | None -> 0.
  in
  {
    rewrite_s = dur Names.rewrite;
    execute_s = dur Names.execute;
    assemble_s = dur Names.assemble;
  }

let m_selects = Metrics.counter "executor.select.total"
let m_joins = Metrics.counter "executor.join.total"
let m_candidates = Metrics.histogram "executor.candidates"
let m_embeddings = Metrics.histogram "executor.embeddings"
let m_results = Metrics.histogram "executor.results"

(* One labelled series per phase, so the snapshot distinguishes where
   query time goes instead of pooling all three into one distribution. *)
let phase_seconds phase =
  Metrics.histogram ~labels:[ ("phase", phase) ] "executor.phase.seconds"

let ps_rewrite = phase_seconds "rewrite"
let ps_execute = phase_seconds "execute"
let ps_assemble = phase_seconds "assemble"

let note_phases p =
  Metrics.observe ps_rewrite p.rewrite_s;
  Metrics.observe ps_execute p.execute_s;
  Metrics.observe ps_assemble p.assemble_s

let note_sizes ~candidates ~embeddings ~results =
  Metrics.observe_int m_candidates candidates;
  Metrics.observe_int m_embeddings embeddings;
  Metrics.observe_int m_results results

let evaluator_of mode seo =
  match mode with Tax -> Condition.eval_tax | Toss -> Toss_condition.evaluator seo

let mode_name = function Tax -> "tax" | Toss -> "toss"

(* The root span records what the run was over and what it returned:
   meta [mode] and [collection] (a join's left collection) at open time,
   and [results] once the plan has run — so a slow-query record or a
   sampled trace stands on its own. *)
let root_meta ~mode collection =
  [ ("mode", mode_name mode); ("collection", Collection.Snapshot.name collection) ]

(* Both entry points are thin facades: phase (i) builds a plan (the
   planner rewrites the pattern and consults collection statistics),
   phases (ii)/(iii) are [Plan.run]. *)

let finish ~plan (results, (exec : Plan.exec_stats)) trace =
  let phases = phases_of_trace trace in
  let n_results = List.length results in
  let trace =
    { trace with Span.meta = trace.Span.meta @ [ ("results", string_of_int n_results) ] }
  in
  note_phases phases;
  note_sizes ~candidates:exec.Plan.n_candidates ~embeddings:exec.Plan.n_embeddings
    ~results:n_results;
  let query_strings =
    List.map (fun (l, q) -> (l, Xpath.to_string q)) (Plan.label_queries plan)
  in
  ( results,
    {
      phases;
      n_candidates = exec.Plan.n_candidates;
      n_embeddings = exec.Plan.n_embeddings;
      n_results;
      queries = query_strings;
      trace;
    } )

let select ?(mode = Toss) ?compile ?check seo collection ~pattern ~sl =
  Metrics.incr m_selects;
  let eval = evaluator_of mode seo in
  let (plan, outcome), trace =
    Span.run ~meta:(root_meta ~mode collection) Names.select_root (fun () ->
        let plan =
          Span.with_ Names.rewrite (fun () ->
              Planner.plan_select ~mode ?compile seo collection ~pattern ~sl)
        in
        (plan, Plan.run ?check ~eval ~coll_of:(fun _ -> collection) plan))
  in
  finish ~plan outcome trace

let join ?(mode = Toss) ?compile ?check seo left_coll right_coll ~pattern ~sl =
  Metrics.incr m_joins;
  let eval = evaluator_of mode seo in
  let coll_of = function
    | Plan.Left | Plan.Single -> left_coll
    | Plan.Right -> right_coll
  in
  let (plan, outcome), trace =
    Span.run ~meta:(root_meta ~mode left_coll) Names.join_root (fun () ->
        let plan =
          Span.with_ Names.rewrite (fun () ->
              Planner.plan_join ~mode ?compile seo left_coll right_coll ~pattern
                ~sl)
        in
        (plan, Plan.run ?check ~eval ~coll_of plan))
  in
  finish ~plan outcome trace
