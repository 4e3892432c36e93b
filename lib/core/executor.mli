(** The Query Executor (TOSS architecture component 3).

    Executes pattern-tree queries against a store collection in the three
    phases the paper times (Section 6): (i) parse/rewrite the pattern tree
    into XPath queries, (ii) execute the XPath queries against the store,
    (iii) assemble the fetched candidates into TAX-form witness trees
    (re-checking the full selection condition). The [mode] selects the
    baseline TAX semantics or the ontology-aware TOSS semantics; both run
    the same pipeline, so measured differences reflect the ontology
    accesses, as in the paper.

    Both entry points are facades over {!Planner.plan_select} /
    {!Planner.plan_join} followed by {!Plan.run}: phase (i) builds the
    physical plan (scan ordering, document pruning, and the join pairing
    strategy are decided here from collection statistics), phases (ii)
    and (iii) interpret it.

    [compile] is the engine's only switch. By default ([compile:true])
    the plan's matching side is a {!Plan.Compiled_match} leaf: the
    pattern is compiled once into a single-pass arena matcher
    ({!Compile}) and no XPath scans are issued, so phase (ii) is empty
    and phase (iii) holds one [match] span per document.
    [compile:false] — the CLI's [--no-compile] — runs the paper's
    rewrite→XPath→reassemble pipeline (planned scans, document pruning,
    per-document embedding), which doubles as the in-engine reference
    the differential harness ([toss check]) compares
    witness-for-witness against the compiled matcher. Results are
    identical either way. *)

type mode = Rewrite.mode = Tax | Toss

type phases = {
  rewrite_s : float;  (** phase (i) seconds, including planning *)
  execute_s : float;  (** phase (ii) seconds *)
  assemble_s : float;  (** phase (iii) seconds *)
}

type stats = {
  phases : phases;
  n_candidates : int;  (** candidate nodes fetched across labels *)
  n_embeddings : int;  (** pattern embeddings found during assembly *)
  n_results : int;  (** witness trees returned (after deduplication) *)
  queries : (int * string) list;
      (** label -> XPath sent to the store, in scan (execution) order —
          most-selective-first *)
  trace : Toss_obs.Span.t;
      (** the full span tree of this run — its only record: EXPLAIN
          ANALYZE, the access log's sampled traces and the slow-query
          log all read it. The root ([executor.select] or
          [executor.join]) carries meta [mode], [collection] (a join's
          left collection) and [results] (= [n_results]). [phases] is a
          view over its [rewrite]/[execute]/[assemble] children, so the
          two always agree. Under [execute] there is one [xpath] span
          per label query (annotated with [rows]/[indexed]/[scanned] by
          the store) and under [assemble] a [prune] span per pruned
          side (annotated [docs_in]/[docs_out]), one [embed] span per
          surviving document (annotated with the enumeration funnel)
          and, for joins, a [pair] span (annotated with the
          [strategy] and pair counts) — the operators EXPLAIN ANALYZE
          renders. Compiled runs (the default) issue no scans: [execute]
          is empty and [assemble] holds one [match] span per document
          (annotated [nodes]/[structural]/[matches]) instead of
          [prune]/[embed]. Allocation deltas are populated when
          [Toss_obs.Span.set_enabled true] was called beforehand. A run
          that raises (a deadline [check], say) returns no tree. *)
}

val total_s : phases -> float
(** Sum of the three phase durations — the end-to-end query time the
    paper reports. *)

val select :
  ?mode:mode ->
  ?compile:bool ->
  ?check:(unit -> unit) ->
  Seo.t ->
  Toss_store.Collection.Snapshot.t ->
  pattern:Toss_tax.Pattern.t ->
  sl:int list ->
  Toss_xml.Tree.t list * stats
(** [σ_{P,SL}] over every document of the pinned snapshot. Planning and
    execution both read the same immutable version, so the answer is
    exactly the one a stop-the-world run at that version would produce —
    concurrent writers advancing the underlying collection have no
    effect on an in-flight call. The call itself takes no locks and is
    safe to run on any domain (its observability side effects go to the
    domain-safe {!Toss_obs} registry and the calling domain's span
    context). [compile] (default true) runs the compiled single-pass
    matcher instead of the interpreted pipeline. [check] is forwarded to
    {!Plan.run} as its cooperative cancellation checkpoint (the query
    server's per-request deadline — under a compiled plan it fires once
    per arena node); whatever it raises propagates out of this call. *)

val join :
  ?mode:mode ->
  ?compile:bool ->
  ?check:(unit -> unit) ->
  Seo.t ->
  Toss_store.Collection.Snapshot.t ->
  Toss_store.Collection.Snapshot.t ->
  pattern:Toss_tax.Pattern.t ->
  sl:int list ->
  Toss_xml.Tree.t list * stats
(** Condition join of two pinned snapshots (same isolation and
    domain-safety guarantees as {!select}). The pattern's root must have
    exactly two children — the sub-pattern matched in the left collection
    and the one matched in the right (as in the paper's Figure 14); the
    root itself stands for the product node and is not matched against
    either store. An ad edge from the root lets the side match anywhere in
    a document; a pc edge pins it to the document root. Cross-collection
    atoms are evaluated during assembly: equality atoms split across the
    sides hash-partition the pairing, failing that a [~]/[isa] atom
    selects the signature-indexed similarity pairing ({!Plan.Sim_pair})
    when the build side is big enough, and anything else pairs by nested
    loop (the full condition is still re-checked on every key match or
    overlap candidate). The pairing is chosen the same way under either
    value of [compile]; the nested-loop reference plan for a join is
    {!Planner.plan_join}[ ~optimize:false]. *)
