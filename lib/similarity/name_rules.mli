(** Rule-based similarity for person names.

    The paper (Sections 1 and 4.3) motivates rule-based measures for proper
    nouns: WordNet-style lexical resources cannot relate "J. Ullman",
    "J.D. Ullman" and "Jeffrey D. Ullman". This measure encodes the domain
    rules for bibliographic author names and is calibrated to the paper's
    running examples:

    - [d "Gian Luigi Ferrari" "GianLuigi Ferrari" = 0.1] (concatenation),
    - [d "Marco Ferrari" "Mauro Ferrari" = 2.2] (near-typo given names),
    - [d "Marco Ferrari" "GianLuigi Ferrari" > 6] (different people).

    Costs: matching an initial against a full given name costs 1.25, a
    dropped middle name 0.75, a typo 1.1 per edit (up to 2 edits), a token
    concatenation split 0.1; incompatible tokens cost 6.5. The initial
    cost places fully-initialized two-given-token renderings
    ("J. D. Ullman" vs "Jeffrey David Ullman", 2.5) just beyond a
    threshold of 2 but within 3 — the gradient behind the paper's
    ε = 2 / ε = 3 recall difference. *)

val distance : string -> string -> float
val metric : Metric.t
