(** Event-based (SAX-style) XML processing.

    Bibliographic dumps are large (the paper's DBLP file is 188 MB while
    Xindice accepts 5 MB); reading them as a stream of start/end/text
    events lets a caller filter or truncate while parsing instead of
    materializing the whole document. {!trees_where} rebuilds only the
    subtrees whose root tag satisfies a predicate — how one extracts
    "all proceedings records" from a huge dump. *)

val trees_where :
  ?limit:int -> (string -> bool) -> string -> (Tree.t list, Parser.error) result
(** [trees_where p input] rebuilds every maximal subtree whose root tag
    satisfies [p] (subtrees nested inside an already-matching element are
    not reported separately), stopping after [limit] matches if given. *)
