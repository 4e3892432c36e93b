(** Similarity-enhanced ontology contexts — the precomputed structure every
    TOSS query evaluates against (Sections 3–5).

    A context bundles the fused [isa] and [part-of] hierarchies of a
    semistructured database, the similarity enhancement of the [isa]
    hierarchy (computed once by the SEA algorithm with the configured
    measure and threshold ε), and the conversion-function registry. *)

module Hierarchy = Toss_hierarchy.Hierarchy
module Metric = Toss_similarity.Metric
module Sea = Toss_similarity.Sea
module Ontology = Toss_ontology.Ontology

type t

val create :
  ?conversions:Conversion.t ->
  ?metric:Metric.t ->
  ?eps:float ->
  Ontology.t ->
  (t, string) result
(** Builds a context from an already fused ontology. The default measure
    is Levenshtein with [eps = 0] (pure TAX-compatible semantics). When
    the standard (existential-lift) SEA construction is similarity
    inconsistent — the cycle case of Definition 9 — the context falls back
    to the universal lift, which keeps only unanimously-agreed orderings
    and always yields a DAG; each fallback counts in the
    [seo.lift.universal] counter. [Error] is reserved for invalid
    parameters or fusion failures. *)

val create_exn :
  ?conversions:Conversion.t -> ?metric:Metric.t -> ?eps:float -> Ontology.t -> t

val digest :
  ?lexicon:Toss_ontology.Lexicon.t ->
  ?content_tags:string list ->
  ?max_content_terms:int ->
  Toss_xml.Tree.Doc.t ->
  Ontology.t
(** The Ontology Maker's ontology of one document
    ({!Toss_ontology.Maker.make}), the per-document half of the build.
    Each call counts in the [seo.build.digests] counter. A caller that
    keeps digests across builds passes them to {!of_ontologies}. *)

val absorbs : ?lexicon:Toss_ontology.Lexicon.t -> Ontology.t -> Ontology.t -> bool
(** [absorbs fused d]: whether fusing the ontology [d] into [fused], the
    fusion of some sources under the [lexicon]'s synonym constraints
    ({!Toss_ontology.Maker.auto_constraints}), adds no node, adds no
    ordering and merges nothing. It holds iff [fused] has each of [d]'s
    relations and, in each of them:
    + every node of [d] has all of its spellings inside one fused node;
    + for every Hasse edge [u -> v] of [d], [u]'s fused node reaches
      [v]'s (Definition 5's first axiom for the new source);
    + every spelling of [d] shares its fused node with each of its
      synonyms ({!Toss_ontology.Lexicon.synonyms}) that [fused] holds
      (the second axiom for the equalities [d] would add).

    Then fusion over the sources plus [d] equals [fused], relation by
    relation, and only then. The cost depends on [d]'s size, not on the
    number of sources. *)

val of_ontologies :
  ?conversions:Conversion.t ->
  ?metric:Metric.t ->
  ?eps:float ->
  ?lexicon:Toss_ontology.Lexicon.t ->
  ?previous:t * Ontology.t list ->
  Ontology.t list ->
  (t, string) result
(** The build from per-document ontologies: fusion under the
    lexicon-derived interoperation constraints, then similarity
    enhancement ({!create}). Fusion's output does not depend on the
    order of the ontologies.

    [previous = (p, fresh)] is an earlier build to reuse from: [p] was
    built by this function with the same [lexicon] from the ontologies
    that are not in [fresh], and [fresh] are the rest. It is used only
    when [p] has the same [conversions] and [metric] (physically) and
    [eps]:
    - when {!absorbs} holds for [p]'s fused ontology and every
      ontology in [fresh], the result is [p] itself, the same physical
      value, and neither constraints, fusion nor SEA run;
    - otherwise fusion runs, and when its isa hierarchy
      {!Hierarchy.equal}s [p]'s, the result has the new fused ontology
      and [p]'s enhancement, since the enhancement depends only on the
      isa hierarchy, the measure and ε;
    - otherwise SEA runs as in {!create}.
    So the result equals a build without [previous].

    The two reuses count in [seo.build.reused{what="seo"}] and
    [seo.build.reused{what="enhancement"}]. Run inside {!timed_build}
    to observe the build's time. *)

val of_documents :
  ?conversions:Conversion.t ->
  ?metric:Metric.t ->
  ?eps:float ->
  ?lexicon:Toss_ontology.Lexicon.t ->
  ?content_tags:string list ->
  ?max_content_terms:int ->
  Toss_xml.Tree.Doc.t list ->
  (t, string) result
(** The full precomputation pipeline of the TOSS architecture: {!digest}
    of each document, then {!of_ontologies}, inside {!timed_build}. *)

val timed_build : (unit -> 'a) -> 'a
(** [timed_build build] runs [build], one whole build (the {!digest}s of
    the documents it has not digested before, then {!of_ontologies}),
    and observes its wall time once in the [seo.build.seconds]
    histogram. {!of_documents} and each session rebuild run inside it. *)

val conversions : t -> Conversion.t
val isa_hierarchy : t -> Hierarchy.t
(** The enhanced isa hierarchy when an enhancement exists, the fused one
    otherwise. *)

val enhancement : t -> Sea.t option
val ontology : t -> Ontology.t
(** The fused (pre-enhancement) ontology. *)

val similar : t -> string -> string -> bool
(** The [~] predicate. Equal strings are always similar. Two terms known
    to the (enhanced) isa hierarchy are similar iff they co-reside in an
    enhanced node; two terms both absent from it fall back to a direct
    distance test [d(x, y) <= ε]; a known and an unknown term are never
    similar. The ontology being authoritative for its own terms is what
    makes the rewriter's [~] pushdown (a disjunction of exact tests over
    {!similar_terms}) semantics-preserving. *)

val similar_terms : t -> string -> string list
(** The term plus everything co-resident with it — the expansion the query
    rewriter uses for [~] conditions. *)

val leq_isa : t -> string -> string -> bool
(** [leq_isa t x y]: x isa y (reflexive on known terms), judged on the
    enhanced hierarchy so that similar spellings inherit each other's
    ancestors. *)

val isa_below : t -> string -> string list
(** Every term at-or-below the argument in the (enhanced) isa hierarchy —
    the expansion for [isa]/[below] conditions. *)

val leq_part : t -> string -> string -> bool
val part_below : t -> string -> string list

val knows_term : t -> string -> bool
(** Whether the term occurs in the (enhanced) isa hierarchy. The query
    rewriter only pushes a [~] expansion into XPath when the constant is
    known — for unknown constants the evaluator's direct-distance fallback
    must see every candidate. *)

val n_terms : t -> int

(** {1 Fault injection (testing only)} *)

type fault =
  | No_fault
  | Reuse_unchecked
      (** {!of_ontologies} absorbs without checking: it returns
          [previous]'s SEO whenever its setup matches, without running
          {!absorbs} *)

val fault : fault ref
(** Breaks the reuse rule so a test can show the build-reuse property
    catches it. Production code must leave this at {!No_fault}. *)
