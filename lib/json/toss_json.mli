(** The repository's one JSON implementation: a minimal reader and a
    writer sharing the same value type.

    Grown out of the bench's baseline reader when the server's wire
    protocol, [Explain.to_json] and the bench baseline artifacts each
    needed the same escaping rules — kept dependency-free on purpose:
    the container pins the toolchain, so no [yojson].

    Reading is just enough of RFC 8259 for the artifacts this repository
    writes. Numbers are all parsed as [float]; strings decode the
    standard escapes including [\uXXXX] (encoded back to UTF-8;
    surrogate pairs are not combined). Object member order is preserved;
    duplicate keys are kept ([member] returns the first).

    Writing is compact (no insignificant whitespace) and emits only
    valid JSON: strings escape the two mandatory characters plus
    control characters as [\uXXXX]; integral floats print without a
    fractional part; non-finite floats (which RFC 8259 cannot express)
    print as [null]. [to_string] and [parse] round-trip: for every
    value [v], [parse (to_string v) = Ok v] up to float precision. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** {1 Reading} *)

val parse : string -> (t, string) result
(** Parses one JSON value (surrounding whitespace allowed); [Error]
    carries a message with a byte offset. Trailing non-whitespace after
    the value is an error. *)

val parse_exn : string -> t
(** @raise Invalid_argument on parse failure. *)

(** {1 Accessors} — all total, returning [None] on kind mismatch. *)

val member : string -> t -> t option
(** First binding of the key in an [Obj]. *)

val to_list : t -> t list option
val to_num : t -> float option
val to_str : t -> string option
val to_bool : t -> bool option

val to_int : t -> int option
(** [Num] truncated to [int] — the reader parses every number as
    [float], so integral wire fields come back through this. *)

(** {1 Writing} *)

val escape : string -> string
(** The body of a JSON string literal (no surrounding quotes): escapes
    the double quote, the backslash, and all control characters below
    [0x20] (newline, carriage return and tab symbolically, the rest as
    [\uXXXX]). Bytes [>= 0x80] pass through, so UTF-8 text stays
    UTF-8. *)

val quote : string -> string
(** [escape] with the surrounding quotes — a complete string literal. *)

val to_string : t -> string
(** Compact rendering. Object members keep their list order. *)
