(** Cost-aware compilation of pattern trees into {!Plan} operator trees.

    The planner runs during the executor's [rewrite] phase: it rewrites
    the pattern into per-label XPath queries (through {!Rewrite}), then
    uses the pinned snapshot's per-term statistics
    ({!Toss_store.Collection.Snapshot.estimate_rows}) to shape the
    physical plan. Planning reads only the immutable snapshot (statistics
    are version-local), so it is safe from any domain and consistent with
    the execution that interprets the plan against the same snapshot:

    - label scans are ordered most-selective-first, so the candidate
      tables that prune hardest are populated cheapest-first;
    - a [Doc_prune] operator drops documents lacking candidates for any
      required label before embedding (an embedding binds every label,
      so those documents cannot contribute);
    - join cross-conditions whose top-level conjuncts include an
      equality split across the two sides are lowered to [Hash_pair]
      (hash-partitioned pairing with a full recheck on key matches);
      otherwise a top-level [~]/[isa] conjunct split across the sides is
      lowered to [Sim_pair] (signature prefix filtering with an adaptive
      overlap constraint — see {!Simjoin} — plus the same full recheck)
      whenever the build side's statistics show at least two documents;
      anything else falls back to [Nested_loop_pair].

    With [compile:true] (the default) the scan/prune/embed pipeline is
    replaced wholesale by a single {!Plan.Compiled_match} leaf per side:
    the pattern is compiled once ({!Compile.build}) and every document
    of the snapshot is matched in one arena pass, with the
    SEO-expanded predicates evaluated inline instead of being lowered
    to XPath scans. [compile:false] (the CLI's [--no-compile]) keeps
    the paper's rewrite→XPath→reassemble pipeline — the in-engine
    reference the differential harness compares against. Under a join
    the pairing strategy is chosen the same way either way.

    [optimize] (default true) exists only to build reference plans:
    with [optimize:false] the same IR is produced naively — rewrite
    order, no statistics, no pruning, nested-loop pairing — which the
    equivalence tests and the ABL-PLAN/ABL-SIMJOIN ablations run
    through {!Plan.run} as the baseline the planned operators must
    reproduce witness for witness. No serving path plans naively. *)

val plan_select :
  ?mode:Rewrite.mode ->
  ?optimize:bool ->
  ?compile:bool ->
  Seo.t ->
  Toss_store.Collection.Snapshot.t ->
  pattern:Toss_tax.Pattern.t ->
  sl:int list ->
  Plan.t
(** The plan for [σ_{P,SL}] over the snapshot. [compile] (default true)
    selects the compiled matcher over the interpreted scan/prune/embed
    pipeline; [optimize] only shapes the interpreted pipeline. *)

val plan_join :
  ?mode:Rewrite.mode ->
  ?optimize:bool ->
  ?compile:bool ->
  Seo.t ->
  Toss_store.Collection.Snapshot.t ->
  Toss_store.Collection.Snapshot.t ->
  pattern:Toss_tax.Pattern.t ->
  sl:int list ->
  Plan.t
(** The plan for a condition join. The pattern's root must have exactly
    two children (the left and right sub-patterns); raises
    [Invalid_argument] otherwise, as {!Executor.join} always has. Under
    [compile] each side becomes its own {!Plan.Compiled_match} leaf
    feeding the shared pairing operators. With [optimize:false] every
    cross condition pairs by [Nested_loop_pair] — the reference the
    hash and sim-pair lowerings are checked against. *)
