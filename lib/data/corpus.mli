(** The ground-truth corpus model.

    A corpus is the {e semantic} content of a bibliography: papers with
    canonical authors, venues and years. The DBLP- and SIGMOD-style
    generators render the same corpus into XML with different schemas and
    name variants, so every query's semantically correct answer set is
    computable exactly — the role the paper's hand-checked answers play in
    its Figure 15 experiments. *)

type venue = {
  venue_id : int;
  abbrev : string;  (** as stored by DBLP, e.g. "SIGMOD Conference" *)
  full_name : string;  (** as stored by the proceedings pages *)
  category : string;  (** e.g. "database conference" (lexicon isa parent) *)
}

type author = { author_id : int; person : Names.person }

type paper = {
  paper_id : int;
  key : string;  (** stable key, e.g. "p0042" — appears as an XML attribute *)
  title : string;
  topic : string option;
  author_ids : int list;
  venue_id : int;
  year : int;
  pages : int * int;
}

type t = {
  seed : int;
  venues : venue array;
  authors : author array;
  papers : paper array;
}

val generate : ?n_authors:int -> seed:int -> n_papers:int -> unit -> t
(** Deterministic corpus: [n_authors] defaults to [max 20 (n_papers / 2)].
    Papers carry 1–4 authors, venues are drawn with a database-conference
    bias, years span 1994–2003. *)

val venue : t -> int -> venue
val author : t -> int -> author
val paper_by_key : t -> string -> paper option

val papers_by_author : t -> int -> paper list
