(** Logical query plans and their physical operators.

    The planner ({!Planner}) compiles a pattern-tree query into this IR;
    {!run} interprets it. Splitting the two keeps the executor's
    three-phase contract — the plan is built during the [rewrite] phase,
    and {!run} produces exactly one [execute] span (all label scans) and
    one [assemble] span (pruning, embedding, pairing, deduplication), so
    {!Executor.stats.phases} remains a faithful view over the trace.

    A plan is a small operator tree:

    - [Label_scan] — one XPath query sent to the store for one pattern
      label, carrying the planner's cardinality estimate;
    - [Candidate_filter] — the set of scans feeding one side's
      candidate tables, in execution order;
    - [Doc_prune] — drop documents that lack candidates for a required
      label (an embedding needs every label, so such documents cannot
      contribute results);
    - [Embed] — enumerate pattern embeddings per surviving document;
    - [Nested_loop_pair] / [Hash_pair] / [Sim_pair] — combine the two
      sides of a join, checking the cross condition on every pair, only
      on hash-partitioned key matches, or only on signature-overlap
      candidates of a [~]/[isa] atom ({!Simjoin});
    - [Dedup] — global set semantics over the paired results.

    Plans are pure data: rendering one ({!pp}) performs no store access,
    which is what the CLI's [--explain] shows before running anything. *)

type scan = {
  scan_label : int;  (** the pattern label this scan fetches *)
  xpath : Toss_store.Xpath.t;
  est_rows : int option;
      (** planner estimate from {!Toss_store.Collection.estimate_rows};
          [None] in a reference plan built with [optimize:false] (no
          statistics are consulted) *)
}

type side = Single | Left | Right
(** Which candidate table an operator reads: [Single] for selections,
    [Left]/[Right] for the two collections of a join. *)

type embed_spec = {
  side : side;
  sub_pattern : Toss_tax.Pattern.t;
  sub_sl : int list;  (** the SL labels that fall on this side *)
  pin_root : bool;
      (** pin the sub-pattern root to the document root (a pc edge from
          the join product root, as in the paper's Figure 14) *)
}

type node =
  | Label_scan of scan
  | Candidate_filter of { side : side; scans : node list }
      (** [scans] are [Label_scan] nodes, in execution order *)
  | Doc_prune of { required : int list; input : node }
  | Embed of { spec : embed_spec; input : node }
  | Nested_loop_pair of {
      cross_condition : Toss_tax.Condition.t;
      left : node;
      right : node;
    }
  | Hash_pair of {
      keys : (Toss_tax.Condition.term * Toss_tax.Condition.term) list;
          (** equality atoms split across the sides: (left term, right
              term) pairs used to partition; the full [cross_condition]
              is still re-checked on every key match, so the operator is
              an optimization, never a semantic change *)
      cross_condition : Toss_tax.Condition.t;
      left : node;
      right : node;
    }
  | Sim_pair of {
      atom : Toss_tax.Condition.t;
          (** the top-level [~]/[isa] cross conjunct driving the filter
              (for rendering; completeness relies on it being a
              top-level conjunct of [cross_condition]) *)
      lterm : Toss_tax.Condition.term;  (** probe-side (left) atom term *)
      rterm : Toss_tax.Condition.term;  (** build-side (right) atom term *)
      scheme : Simjoin.scheme;
          (** the taxonomic signature scheme ({!Simjoin}) the planner
              derived from the atom kind, mode and SEO *)
      cross_condition : Toss_tax.Condition.t;
      left : node;
      right : node;
    }
      (** the similarity-join operator: the right side is indexed by
          frequency-ordered signature prefixes, the left probes with an
          adaptive overlap constraint, and — exactly as for [Hash_pair]
          — the full [cross_condition] is re-checked on every candidate,
          so the operator is an optimization, never a semantic change *)
  | Dedup of node
  | Compiled_match of { spec : embed_spec; matcher : Compile.t }
      (** the compiled single-pass matcher ({!Compile}): no scans, no
          pruning — every document of the side's snapshot is matched in
          one arena pass, predicates evaluated inline. Produces witness
          trees directly for [Single] sides and bindings for join
          sides, exactly as [Embed] does, so the pairing operators are
          shared between the compiled and interpreted pipelines. *)

type t = { mode : Rewrite.mode; root : node }

val scans : t -> scan list
(** Every [Label_scan] in the plan, left to right (execution order). *)

val label_queries : t -> (int * Toss_store.Xpath.t) list
(** [scans] as (label, query) pairs — what reaches the store. *)

val pp : Format.formatter -> t -> unit
(** Renders the operator tree with estimated cardinalities — the CLI's
    [--explain]. Deterministic; performs no store access. *)

val to_string : t -> string

(** {1 Execution} *)

type exec_stats = { n_candidates : int; n_embeddings : int }

(** {1 Fault injection (testing only)}

    Deliberate sabotage hooks for the differential harness
    ([Toss_check]): each variant breaks one invariant the interpreter
    relies on, so [toss check --inject-fault] can demonstrate that the
    naive oracle catches a broken optimizer and that the shrinker
    minimizes the witness. Production code must leave this at
    {!No_fault}. *)

type fault =
  | No_fault
  | Hash_no_recheck
      (** [Hash_pair] accepts every key match without re-checking the
          full cross condition *)
  | Prune_first_only
      (** [Doc_prune] keeps only the first surviving document *)
  | No_dedup  (** both deduplication sites pass duplicates through *)
  | Compile_skip_descendant_edge
      (** [Compiled_match] stops bubbling ancestor-descendant matches up
          the arena, silently demoting every ad edge to pc semantics —
          matches deeper than one level under their pattern parent's
          image are dropped *)
  | Simjoin_prefix_too_short
      (** [Sim_pair] indexes one prefix token too few per build record
          (see {!Simjoin.build}), making some true pairs unreachable —
          missed results *)
  | Simjoin_no_recheck
      (** [Sim_pair] emits every overlap candidate without re-checking
          the cross condition — false results *)

val fault : fault ref

val run :
  ?check:(unit -> unit) ->
  eval:(Toss_tax.Condition.env -> Toss_tax.Condition.t -> bool) ->
  coll_of:(side -> Toss_store.Collection.Snapshot.t) ->
  t ->
  Toss_xml.Tree.t list * exec_stats
(** Interprets the plan against pinned collection snapshots — the
    interpreter performs no locking of its own and reads only immutable
    version state, so concurrent runs on separate domains are safe and a
    run's results are unaffected by writers advancing the collections
    mid-flight. One [execute] span containing an [xpath] span
    (and [Xpath_exec] event) per scan, then one [assemble] span
    containing the [prune], per-document [embed] and (for joins) [pair]
    spans; compiled plans have no scans (the [execute] span is empty)
    and one per-document [match] span under [assemble] instead of
    [prune]/[embed]. Must be called inside an executor root span for
    the trace to be observable; works standalone too (spans become
    no-ops), which is how tests and ablations run hand-built and
    reference plans. Label scans always go through the store's
    indexes; the unindexed reference lives in the store
    ({!Toss_store.Collection.Snapshot.eval}[ ~use_index:false]).

    [check] is a cooperative cancellation checkpoint, called before
    every label scan, every per-document embedding enumeration, and
    every outer pairing iteration — the interpreter's unit-of-work
    boundaries — and, for compiled plans, once per arena node inside
    the matcher's loop. It does nothing by default; the query server passes one
    that raises once the request's deadline has passed, which unwinds
    the interpreter mid-plan (no partial results escape: the exception
    propagates through {!Executor}). Checkpoint granularity bounds how
    long a runaway query can overstay its deadline by the cost of one
    scan or one document's embedding enumeration. *)
