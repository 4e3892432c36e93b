(** A named-collection database, mirroring the slice of Xindice's API the
    paper's prototype uses: create a collection, insert documents, run an
    XPath query against a collection.

    The collection map is guarded by an internal mutex, so lookups,
    creation and registration are safe from any domain or thread. The
    {!Collection.t} values handed out are themselves multi-versioned
    (see {!Collection.snapshot}); the database adds no further locking
    around their contents. *)

type t

val create : unit -> t

val create_collection : ?max_bytes:int -> t -> string -> Collection.t
(** @raise Invalid_argument when the name is already taken. *)

val register : t -> Collection.t -> unit
(** Adopts an existing collection under its own {!Collection.name} —
    how {!Persist.load_database} installs loaded collections without
    copying their documents.
    @raise Invalid_argument when the name is already taken. *)

val collection : t -> string -> Collection.t option
val collection_exn : t -> string -> Collection.t
val drop_collection : t -> string -> unit
val collection_names : t -> string list

val snapshot : t -> (string * Collection.Snapshot.t) list
(** Pins the current version of every collection, sorted by name. The
    collection set is captured atomically (under the database mutex);
    each entry is that collection's {!Collection.snapshot} at capture
    time, so the result is a stable, immutable view of the whole
    database suitable for lock-free multi-domain reads. Collections
    added (or versions published) after the call are not reflected. *)

val query : t -> collection:string -> string ->
  (Collection.doc_id * Toss_xml.Tree.Doc.node) list
(** Parses and evaluates an XPath query against a collection.
    @raise Not_found for an unknown collection
    @raise Xpath_parser.Error on syntax errors. *)
