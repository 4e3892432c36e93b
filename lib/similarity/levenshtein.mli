(** Edit distances.

    The Levenshtein distance with unit costs is the paper's running example
    of a {e strong} similarity measure (footnote to Definition 7); it drives
    Example 11 and the experiments' SEO construction. *)

val distance : string -> string -> int
(** Unit-cost insert/delete/substitute edit distance. O(|a|·|b|) time,
    O(min(|a|,|b|)) space. *)

val distance_within : int -> string -> string -> int option
(** [distance_within k a b] is [Some d] when [distance a b = d <= k] and
    [None] otherwise; runs in O(k·min(|a|,|b|)) using the banded DP, which
    the SEA algorithm uses to test pairs against a threshold cheaply. *)

val metric : Metric.t
(** Levenshtein as a {!Metric.t}. *)
