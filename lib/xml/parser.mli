(** A parser for the XML 1.0 subset used by bibliographic data sets.

    Supports: an optional XML declaration and DOCTYPE line, elements with
    attributes (single or double quoted), character data, the five
    predefined entities plus decimal/hexadecimal character references,
    comments, CDATA sections, and self-closing tags. Namespaces are not
    interpreted (prefixed names are kept verbatim). *)

type error = { line : int; column : int; message : string }

exception Parse_error of error

val parse : ?keep_whitespace:bool -> string -> (Tree.t, error) result
(** Parses a complete document to its root element. Whitespace-only text
    nodes between elements are dropped unless [keep_whitespace] is true
    (default false). *)

val parse_exn : ?keep_whitespace:bool -> string -> Tree.t
(** @raise Parse_error *)

val pp_error : Format.formatter -> error -> unit
