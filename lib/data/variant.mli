(** Name-rendering variants.

    Bibliographic sources store the same person differently — full first
    names in DBLP, initials in the SIGMOD pages, plus entry errors
    (Section 2.2). A {!style} describes one rendering; the recall that
    TOSS gains over TAX at a threshold ε is exactly the set of variants
    whose rule-based distance from the canonical rendering is within ε. *)

type style =
  | Full  (** "Jeffrey David Ullman" — the canonical rendering *)
  | First_initial  (** "J. Ullman" / "J. D. Ullman" *)
  | All_initials  (** "J. D. Ullman" *)
  | Drop_middle  (** "Jeffrey Ullman" *)
  | Concat  (** "GianLuigi Ferrari" -> glued given names *)
  | Typo of int  (** canonical full rendering with n single-char typos *)

val render : Names.person -> style -> string

val random_typo : Random.State.t -> string -> string
(** One random character substitution, deletion, or transposition (never
    in the first character). *)

val render_with_rng : Random.State.t -> Names.person -> style -> string
(** Like {!render}, drawing typo positions from the RNG. *)
