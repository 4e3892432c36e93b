(** Filesystem persistence for the query server's database.

    Xindice stored collections as directories of XML documents; this
    module keeps the same durable layout: a database is a directory of
    collection directories, each holding one [NNNNNN.xml] file per
    document (zero-padded insertion order). Round-trips preserve
    document order and content up to whitespace normalization. *)

val append_document :
  dir:string -> collection:string -> Collection.doc_id -> Toss_xml.Tree.t -> unit
(** [append_document ~dir ~collection id tree] writes one document file
    into the database directory [dir] under [collection]'s
    subdirectory, creating both directories if needed — how the query
    server keeps its [--db] directory durable across inserts without
    rewriting the whole database.
    @raise Sys_error on filesystem failures. *)

val load_database : dir:string -> (Database.t, string) result
(** Every subdirectory becomes a collection named after it, loading its
    [*.xml] files in lexicographic (= insertion) order. Every file of
    every collection is attempted: on failure the error lists {e all}
    unloadable files (newline-separated, each with its path), not just
    the first. *)
