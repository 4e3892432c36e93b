(** Content-type inference for object attributes.

    Definition 1 assigns a type to every object's tag and content; the
    ontology-extended model (Section 5) compares typed values through
    conversion functions. This module infers the primitive type of a text
    content string. *)

type t = Int | Float | Year | String

val infer : string -> t
(** [Year] for four-digit integers in 1000–2999, [Int] for other integers,
    [Float] for decimal numbers, otherwise [String]. *)

val name : t -> string
val of_name : string -> t option
