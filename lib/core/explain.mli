(** Query plans: what the rewriter will send to the store and why.

    Summarizes, for a pattern tree under a given SEO context, the XPath
    query each label gets, the ontology/similarity expansions applied to
    the condition's constants, and which atoms remain for the assembly
    phase. Surfaced by the CLI's [--explain] and useful when judging why a
    TOSS query is slower than its TAX counterpart (more disjuncts = more
    candidates). *)

type expansion = {
  operator : string;  (** "~", "isa", "part_of" *)
  constant : string;
  terms : string list;  (** what the constant expands to *)
}

type t = {
  mode : Rewrite.mode;
  label_queries : (int * string) list;  (** label -> XPath sent to the store *)
  expansions : expansion list;
  residual_atoms : string list;
      (** atoms re-checked during assembly (cross-label or unpushable) *)
  plan : Plan.t option;
      (** the physical plan, when attached via {!with_plan} — scan
          order with estimated cardinalities, pruning, and the join
          pairing strategy; [None] for a rewrite-only explanation *)
  trace : Toss_obs.Span.t option;
      (** the execution trace, when the plan was paired with a run via
          {!with_trace}; [None] for a purely static plan *)
}

val explain : ?mode:Rewrite.mode -> Seo.t -> Toss_tax.Pattern.t -> t
(** The static plan for a pattern under the given SEO (no query is run). *)

val with_plan : t -> Plan.t -> t
(** Attaches a physical plan (from {!Planner.plan_select} /
    {!Planner.plan_join}) so {!to_string} and {!to_json} also render the
    operator tree with its estimated cardinalities — the CLI's
    [--explain], which shows the plan {e without} executing it. *)

val with_trace : t -> Toss_obs.Span.t -> t
(** Attaches an execution trace (e.g. [stats.trace] from
    {!Executor.select}) so {!to_string} and {!to_json} also render the observed
    span tree. A plan paired with its run's trace is EXPLAIN ANALYZE:
    the trace's [xpath] spans carry actual [rows]/[indexed]/[scanned]
    per label query and its [embed] spans the per-document assembly
    funnel, and the [rewrite]/[execute]/[assemble] phase durations are
    the very spans [Executor.stats.phases] is a view over, so the
    rendered totals always equal the stats. *)

val to_string : t -> string

val to_json : t -> Toss_json.t
(** The plan as a JSON object ([mode], [label_queries], [expansions],
    [residual_atoms], plus [trace] when attached) — the machine-readable
    EXPLAIN ANALYZE. *)
