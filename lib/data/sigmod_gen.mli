(** Rendering a corpus in the SIGMOD-proceedings-page schema.

    One document per (venue, year): [<proceedings>] holding
    [<conference>] (the venue's {e full} name), [<confYear>], and an
    [<articles>] list of [<article key="...">] entries with abbreviated
    titles and initialized author names — the heterogeneity that makes
    joining with the DBLP rendering require ontologies (booktitle vs
    conference, full vs abbreviated venue names) and similarity (initials,
    abbreviated titles), per Section 2.2. *)

type t = {
  trees : Toss_xml.Tree.t list;  (** one per (venue, year) group *)
  author_strings : (string * int * string) list;
  title_strings : (string * string) list;  (** (paper key, title as written) *)
}

val render : ?seed:int -> ?venue_ids:int list -> Corpus.t -> t
(** [venue_ids] restricts the pages to some venues (default: all). *)
