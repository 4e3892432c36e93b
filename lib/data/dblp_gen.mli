(** Rendering a corpus in the DBLP schema.

    One document: [<dblp>] with an [<inproceedings key="...">] child per
    paper, each holding [<author>]+, [<title>], [<booktitle>] (abbreviated
    venue name), [<year>] and [<pages>]. Author names are rendered mostly
    in full, with the paper's Section 2.2 variation profile (dropped
    middle names, initials, concatenations, entry typos) injected
    deterministically from the seed. *)

type t = {
  tree : Toss_xml.Tree.t;
  author_strings : (string * int * string) list;
      (** (paper key, author id, string as written) *)
  venue_strings : (string * string) list;  (** (paper key, venue as written) *)
}

val render : ?seed:int -> Corpus.t -> t
