(** XML serialization. *)

val to_string : ?decl:bool -> Tree.t -> string
(** Compact, single-line serialization. [decl] prepends the XML
    declaration (default false). Round-trips with {!Parser.parse} up to
    whitespace normalization. *)

val to_pretty_string : ?decl:bool -> ?indent:int -> Tree.t -> string
(** Indented serialization; elements with only text content stay on one
    line. [indent] defaults to 2. *)

val byte_size : Tree.t -> int
(** Size in bytes of {!to_string} output, without the declaration — used
    by the scalability experiments to report data-set sizes the way the
    paper does. *)
