(** Person-name pools for the synthetic bibliographic corpus.

    The pools deliberately contain confusable pairs (small edit distances,
    e.g. Marco/Mauro, shared surnames) so that similarity thresholds trade
    precision for recall the way the paper's Figure 15 reports. *)

type person = { first : string; middle : string option; last : string }

val fresh : Random.State.t -> person
(** Draws a person; ~50% receive a middle name. *)

val full : person -> string
(** "First Middle Last" canonical rendering. *)
