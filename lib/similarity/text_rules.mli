(** Rule-based similarity for titles and other phrases.

    Token-level alignment: identical tokens cost 0, a prefix abbreviation
    ("Eff." / "Efficient", "Mgmt." / "Management") costs 0.5, a token with
    at most two character edits costs 1.1 per edit, a dropped token costs
    3.5, and anything else costs 5.0. This captures how proceedings pages
    abbreviate the titles that bibliographies store in full — the paper's
    Example 13 joins the two sources on title similarity. Dropped tokens
    are nearly as expensive as mismatches so that a phrase never counts as
    similar to its own head noun ("web conference" vs "conference"), which
    would make isa hierarchies similarity inconsistent. *)

val distance : string -> string -> float

val within : eps:float -> string -> string -> bool
(** [distance x y <= eps], aborting the alignment as soon as every
    continuation exceeds the threshold. *)
