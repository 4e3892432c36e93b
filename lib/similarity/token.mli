(** The tokenizer the rule-based name and text measures share. *)

val tokenize : string -> string list
(** Splits on non-alphanumeric characters and lowercases; drops empties. *)
