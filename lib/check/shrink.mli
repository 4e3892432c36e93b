(** Greedy minimization of failing differential-test cases.

    Given a (corpus, SEO, query) triple on which {!Diff.check_case}
    reports a discrepancy, repeatedly applies the smallest-footprint
    reduction that still fails — dropping documents (on either side of a
    join), pruning document subtrees (again on both sides), dropping
    top-level condition conjuncts, ontology edges and SL entries, and
    removing leaf pattern nodes — until no single-step reduction
    reproduces the failure. *)

val minimize : ?max_steps:int -> Gen.case -> Gen.case * Diff.failure * int
(** [minimize case] returns a locally-minimal failing case, its (possibly
    different) discrepancy, and the number of candidate cases tried.
    [max_steps] bounds the number of oracle-vs-executor comparisons spent
    shrinking (default 400).

    @raise Invalid_argument if [case] does not fail to begin with. *)
