(** Answer-quality metrics (Section 1 and [14]).

    Precision is the fraction of returned answers that are correct; recall
    the fraction of correct answers that are returned; quality is the
    geometric mean [sqrt (precision * recall)] the paper adopts from its
    reference [14]. Both answer lists are treated as sets. *)

type counts = { tp : int; fp : int; fn : int }

val counts : correct:string list -> returned:string list -> counts
(** Set semantics: both lists are deduplicated. *)

val precision : correct:string list -> returned:string list -> float
(** 1.0 for an empty answer (nothing returned is wrong). *)

val recall : correct:string list -> returned:string list -> float
(** 1.0 when nothing is correct (nothing can be missed). *)

val quality : precision:float -> recall:float -> float

val evaluate : correct:string list -> returned:string list -> float * float * float
(** (precision, recall, quality). *)

val mean : float list -> float
(** 0 on the empty list. *)
