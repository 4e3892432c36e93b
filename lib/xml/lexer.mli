(** Low-level XML scanning shared by the tree parser and the SAX driver:
    position-tracked input, names, quoted attribute values, entity and
    character references, comments, CDATA sections, and prolog/DOCTYPE
    skipping. *)

exception Lex_error of { line : int; column : int; message : string }

type state

val make : ?keep_whitespace:bool -> string -> state
val keep_whitespace : state -> bool

val fail : state -> string -> 'a
(** @raise Lex_error at the current position. *)

val eof : state -> bool

val peek : state -> char
(** ['\000'] at end of input. *)

val advance : state -> unit
val skip_whitespace : state -> unit
val looking_at : state -> string -> bool
val expect : state -> string -> unit
val name : state -> string

val entity : state -> string
(** Consumes [&...;] and returns the replacement text. *)

val attributes : state -> (string * string) list
val skip_comment : state -> unit
val cdata : state -> string

val skip_prolog : state -> unit
(** XML declaration, leading comments, DOCTYPE. *)

val skip_trailing : state -> unit
(** Whitespace and comments after the root; fails on anything else. *)

val is_blank : string -> bool
