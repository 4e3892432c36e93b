(** Typed query plans and their interpreter.

    The planner ({!Planner}) compiles a pattern-tree query into a plan;
    {!run} interprets it. Splitting the two keeps the executor's
    three-phase contract — the plan is built during the [rewrite] phase,
    and {!run} produces exactly one [execute] span (all label scans) and
    one [assemble] span (pruning, embedding, pairing, deduplication), so
    {!Executor.stats.phases} remains a faithful view over the trace.

    A plan does one of the two things the paper's executor does
    (Section 6): it selects over one collection, or it joins two. Each
    side is an {!input}: the sub-pattern it embeds, and the source its
    documents come from — either the paper's label scans (one XPath
    query per pattern label, optionally followed by a prune of the
    documents lacking a candidate for some label) or the compiled
    single-pass matcher ({!Compile}). A join pairs its two inputs'
    bindings by one of three {!pairing} strategies, all re-checking the
    full cross condition, and deduplicates the pairs.

    Plans are pure data: rendering one ({!to_string}) performs no store
    access, which is what the CLI's [--explain] shows before running
    anything. *)

type scan = {
  scan_label : int;  (** the pattern label this scan fetches *)
  xpath : Toss_store.Xpath.t;
  est_rows : int option;
      (** planner estimate from {!Toss_store.Collection.estimate_rows};
          [None] in a reference plan built with [optimize:false] (no
          statistics are consulted) *)
}

type side = Single | Left | Right
(** Which collection an input reads: [Single] for a selection,
    [Left]/[Right] for the two collections of a join. *)

type embed_spec = {
  sub_pattern : Toss_tax.Pattern.t;
  sub_sl : int list;  (** the SL labels that fall on this side *)
  pin_root : bool;
      (** pin the sub-pattern root to the document root (a pc edge from
          the join product root, as in the paper's Figure 14) *)
}

type source =
  | Scans of { scans : scan list; prune : bool }
      (** one store query per pattern label, in execution order, filling
          the side's candidate tables; with [prune], documents lacking a
          candidate for some label of the sub-pattern are dropped before
          embedding (an embedding binds every label, so such documents
          cannot contribute) *)
  | Compiled of Compile.t
      (** the compiled single-pass matcher: no scans — each document of
          the side's snapshot that passes the prune ({!Compile.viable}:
          every tag-pinned state has a node of its tag passing its
          predicate) is matched in one arena pass, predicates evaluated
          inline; the rest are skipped, which is exact *)

type input = { spec : embed_spec; source : source }
(** One side of a plan: a selection's witnesses, or a join side's
    bindings. *)

(** How a join finds the right bindings worth checking against each left
    one. Every strategy re-checks the full cross condition on each
    candidate, so the choice is an optimization, never a semantic
    change. *)
type pairing =
  | Nested_loop  (** every left × right pair is a candidate *)
  | Hash of (Toss_tax.Condition.term * Toss_tax.Condition.term) list
      (** equality atoms split across the sides, as (left term, right
          term) pairs: only key matches are candidates *)
  | Sim of {
      atom : Toss_tax.Condition.t;
          (** the top-level [~]/[isa] cross conjunct driving the filter
              (for rendering; completeness relies on it being a
              top-level conjunct of the cross condition) *)
      lterm : Toss_tax.Condition.term;  (** probe-side (left) atom term *)
      rterm : Toss_tax.Condition.term;  (** build-side (right) atom term *)
      scheme : Simjoin.scheme;
          (** the taxonomic signature scheme ({!Simjoin}) the planner
              derived from the atom kind, mode and SEO *)
    }
      (** the similarity join: the right side is indexed by
          frequency-ordered signature prefixes and the left probes with
          an adaptive overlap constraint; only overlap candidates are
          checked *)

type root =
  | Select of input  (** [σ_{P,SL}]: the input's witnesses, per document *)
  | Join of {
      pairing : pairing;
      cross_condition : Toss_tax.Condition.t;
      left : input;
      right : input;
    }
      (** a condition join: product trees of the accepted pairs, with
          global set semantics *)

type t = { mode : Rewrite.mode; root : root }

val scans : t -> scan list
(** Every label scan in the plan, left side first, in execution order —
    what reaches the store. Empty for a compiled plan. *)

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
      (** the {!Hash} pairing accepts every key match without
          re-checking the full cross condition *)
  | Prune_first_only
      (** the prune of a {!Scans} input keeps only the first surviving
          document *)
  | No_dedup
      (** both deduplication sites — a selection's per-document
          witnesses and a join's pairs — pass duplicates through *)
  | Compile_skip_descendant_edge
      (** a {!Compiled} input stops bubbling ancestor-descendant
          matches up the arena, silently demoting every ad edge to pc
          semantics — matches deeper than one level under their pattern
          parent's image are dropped *)
  | Compile_prune_first_node
      (** a {!Compiled} input's prune ({!Compile.viable}) judges each
          tag-pinned state by the first node of its tag alone, so a
          document whose match sits on a later node of that tag is
          skipped — missed results *)
  | Simjoin_prefix_too_short
      (** the {!Sim} pairing indexes one prefix token too few per build
          record (see {!Simjoin.build}), making some true pairs
          unreachable — missed results *)
  | Simjoin_no_recheck
      (** the {!Sim} pairing emits every overlap candidate without
          re-checking the cross condition — false results *)

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
    mid-flight. One [execute] span containing an [xpath] span per
    scan, then one [assemble] span containing the [prune], per-document
    [embed] and (for joins) [pair] spans; compiled plans have no scans
    (the [execute] span is empty) and, instead of [prune]/[embed], one
    [match] span per arena pass under [assemble] — a document the prune
    skips gets none, and is counted in [plan.docs.pruned] and in the
    [assemble] span's [pruned] meta ([pruned_left]/[pruned_right] for
    join sides). Must be called inside an executor root span for the
    trace to be observable; works standalone too (spans become
    no-ops), which is how tests and ablations run hand-built and
    reference plans. Label scans always go through the store's
    indexes; the unindexed reference lives in the store
    ({!Toss_store.Collection.Snapshot.eval}[ ~use_index:false]).

    [check] is a cooperative cancellation checkpoint, called before
    every label scan, every per-document embedding enumeration, and
    every outer pairing iteration — the interpreter's unit-of-work
    boundaries — and, for compiled plans, once per document and once
    per arena node inside the matcher's loop. It does nothing by default; the query server passes one
    that raises once the request's deadline has passed, which unwinds
    the interpreter mid-plan (no partial results escape: the exception
    propagates through {!Executor}). Checkpoint granularity bounds how
    long a runaway query can overstay its deadline by the cost of one
    scan or one document's embedding enumeration. *)
