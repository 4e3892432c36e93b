(** Interoperation constraints (Definition 4).

    Constraints relate terms of different source hierarchies: [x:i <= y:j]
    ([Leq]), [x:i = y:j] ([Eq], shorthand for the two [Leq]s), and
    [x:i <> y:j] ([Neq], forbidding the fusion from identifying the two
    terms). Sources are identified by their 0-based position in the list
    of hierarchies being fused. *)

type qualified = { term : string; source : int }

type t =
  | Leq of qualified * qualified
  | Eq of qualified * qualified
  | Neq of qualified * qualified

val leq : string * int -> string * int -> t
val eq : string * int -> string * int -> t
val neq : string * int -> string * int -> t

val expand : t list -> t list
(** Rewrites every [Eq] into its two [Leq]s (the note after Definition 4);
    [Neq]s pass through. *)

val pp : Format.formatter -> t -> unit
