(** Pattern-tree to XPath rewriting (Section 6, phase i).

    For every label of a pattern tree, builds the XPath query that fetches
    its candidate nodes from the store: the location path follows the
    pattern chain from the root (pc edges become [/], ad edges and the
    root become [//]); node-local conjuncts become name tests and
    predicates. Under {!Toss} mode, ontology and similarity conditions are
    expanded through the SEO — a [~] condition becomes a disjunction of
    exact tests over every co-similar term, an [isa]/[below]/[part_of]
    condition a disjunction over the ontology's below-set — whereas
    {!Tax} mode uses exact match for [~] and substring containment for the
    ontology operators, exactly how the paper ran its baseline.

    Rewriting is an optimization, and every pushed predicate must be
    implied by the atom it came from (candidates a query drops are never
    seen again): conditions that cannot be pushed into XPath (cross-label
    atoms, disjunctions, oversized expansions) are left to the assembly
    phase, which re-checks the full condition. Three atom families are
    deliberately not pushed because an "obvious" pushdown would be
    unsound — [~] over a constant the ontology does not know (the
    evaluator's raw-distance fallback must see every candidate),
    [below]/[above] over a primitive type name ("1999" is below "year"
    by type inference, not by the isa hierarchy), and [=] against a
    numeric constant (both evaluators compare numerically, so "1999.0"
    equals "1999" while an exact-text store predicate would drop it).
    The differential harness ([Toss_check]) pins all three. *)

type mode =
  | Tax  (** the paper's baseline: exact [~], substring ontology operators *)
  | Toss  (** SEO-expanded semantics *)

val label_queries :
  ?mode:mode ->
  ?max_expansion:int ->
  Seo.t ->
  Toss_tax.Pattern.t ->
  (int * Toss_store.Xpath.t) list
(** One query per pattern label, in preorder. [max_expansion] (default 64)
    caps the size of ontology expansions pushed into a predicate or name
    test; larger expansions degrade to unconstrained steps, and assembly
    re-checks the full condition. The planner always uses the default;
    a smaller cap is for tests that run hand-built plans. *)

(** {1 Memoized SEO expansions}

    The raw {!Seo} expansion walks are memoized per (operator, constant)
    pair: one pattern typically consults the same constant several times
    (tag options, content predicates, both join sides, the explainer).
    The cache is keyed on the physical SEO value, so rebuilding the
    ontology invalidates it wholesale. All rewriting goes through these;
    other layers (e.g. {!Explain}) should too. *)

val similar_terms : Seo.t -> string -> string list
(** Memoized {!Seo.similar_terms}. *)

val isa_below : Seo.t -> string -> string list
(** Memoized {!Seo.isa_below}. *)

val part_below : Seo.t -> string -> string list
(** Memoized {!Seo.part_below}. *)

(** {1 Compiled node predicates}

    The per-label predicate the pattern compiler ({!Compile}) evaluates
    inline during its single arena pass — the same node-local conjuncts
    the interpreter's embedding prefilter checks, but with every SEO
    expansion resolved {e once} at compile time into a closure (a hash-set
    membership test where the expansion is finite and authoritative, the
    mode's evaluator under a single-label environment otherwise) instead
    of being re-expanded per XPath call. Unlike the XPath pushdowns,
    which are one-sided prefilters later re-checked, a compiled predicate
    must be {e exactly} the atom's satisfaction relation; the unsound
    pushdown families (unknown-term [~], type-name [below]/[above],
    numeric [=]) therefore compile to evaluator closures rather than
    being dropped. *)

type pred
(** The compiled node-local predicate of one pattern label. *)

val compile_pred : ?mode:mode -> Seo.t -> Toss_tax.Condition.t -> int -> pred
(** [compile_pred ~mode seo condition label] compiles the node-local
    top-level conjuncts of [label] (per
    {!Toss_tax.Condition.local_atoms}). Expansion sets are built through
    the memoized {!similar_terms}/{!isa_below}/{!part_below}, so a
    pattern's compilation shares hierarchy walks with the explainer and
    any XPath rewriting of the same constants. *)

val pred_test : pred -> Toss_xml.Tree.Doc.t -> Toss_xml.Tree.Doc.node -> bool
(** Whether a node satisfies every compiled conjunct. Agrees with
    evaluating each conjunct under an environment binding only this
    label, by construction. *)

val pred_describe : pred -> string list
(** One line per compiled conjunct, annotated with the chosen strategy:
    [[set:N]] (membership in an [N]-term expansion), [[set:N + type]]
    (expansion plus the type-inference leg), [[const:false]] (statically
    unsatisfiable), [[string-eq]]/[[string-neq]] (plain string
    comparison), or [[direct]] (evaluator closure). Feeds the EXPLAIN
    rendering of compiled plans. *)

val pred_tag : pred -> string option
(** The tag this predicate requires outright, when one of its conjuncts
    is a tag equality against a constant that reduces to plain string
    comparison (see [[string-eq]] above). A node with any other tag is
    guaranteed to fail {!pred_test}, so the matcher can dispatch states
    by arena-node tag instead of testing every state at every node.
    [None] when no conjunct pins the tag. *)

val expand_condition : Seo.t -> Toss_tax.Condition.t -> Toss_tax.Condition.t
(** The condition with every [~] and [isa]-family atom over a constant
    replaced by the equivalent disjunction of exact atoms — what
    Section 3 calls transforming the user query to take the SEO into
    account. [below]/[above] atoms whose constant names a primitive type
    are left alone (their type-inference leg has no finite expansion).
    Used for inspection and testing; the executor evaluates conditions
    directly against the SEO instead. *)
