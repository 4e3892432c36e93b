(** Document collections, in the style of Xindice — now multi-versioned.

    A collection is a named, insert-only set of XML documents. Documents
    are frozen into {!Toss_xml.Tree.Doc.t} form and value-indexed on
    first use. Xindice imposed a 5 MB data-size limit that shaped the
    paper's experiments (they truncated DBLP to 4,753,774 bytes);
    [max_bytes] reproduces that behaviour when set.

    {2 Concurrency model (MVCC)}

    Internally a collection is an {!Atomic.t} holding one immutable
    {e view} per version. {!add_document} builds a new view
    (copy-on-write over the shared document entries) and publishes it;
    it never mutates a published view. {!snapshot} pins the current view
    in O(1) with no lock. Consequently:

    - {!Snapshot.t} values are immutable and safe to read from any
      number of domains concurrently, with no synchronization, forever —
      a snapshot's answers never change, even while writers advance the
      collection.
    - Writers are serialized by an internal mutex; readers never block
      writers and writers never block readers.
    - The collection-level read functions below ([eval], [doc], …)
      each pin their own snapshot, so a single call is internally
      consistent, but two consecutive calls may observe different
      versions. Hold a {!snapshot} for repeatable reads.

    See [docs/CONCURRENCY.md] for the system-wide picture. *)

type t

type doc_id = int

exception Collection_full of { name : string; limit : int }

val create : ?max_bytes:int -> string -> t
(** An empty named collection, optionally capped at [max_bytes] of
    serialized document data. *)

val name : t -> string
(** The name given at {!create}. *)

val version : t -> int
(** Monotonic write counter: [0] when empty, bumped by every successful
    {!add_document}. [(name, version)] therefore identifies one exact
    state of the collection — what the query server keys its result
    cache on and returns alongside every answer. Equivalent to
    [Snapshot.version (snapshot t)]. *)

(** An immutable view of the collection at one version.

    All functions in this module are pure reads over frozen state and
    are safe to call from any domain or thread without synchronization.
    The only internal mutation is monotonic cache publication (the lazy
    per-document value indexes and the tag-statistics table), done with
    compare-and-set: concurrent first uses may build the same pure value
    twice, one copy wins, results are identical either way. *)
module Snapshot : sig
  type t

  val name : t -> string
  (** The owning collection's name. *)

  val version : t -> int
  (** The version this snapshot pinned. [(name, version)] identifies
      the exact document set every read below answers from. *)

  val doc : t -> doc_id -> Toss_xml.Tree.Doc.t
  (** @raise Not_found for ids not yet inserted at this version. *)

  val index : t -> doc_id -> Index.t
  (** The document's value index, built on first use and shared by all
      later readers of any snapshot containing the document.
      @raise Not_found for unknown ids. *)

  val doc_ids : t -> doc_id list
  (** Every id stored at this version, in insertion order. *)

  val n_documents : t -> int
  val size_bytes : t -> int
  val n_nodes : t -> int

  val eval :
    ?use_index:bool -> t -> Xpath.t -> (doc_id * Toss_xml.Tree.Doc.node) list
  (** Evaluates the query against every document of this version, in
      insertion order. With [use_index] (default true), leading [//tag]
      steps are answered from the documents' tag indexes instead of
      scanning. *)

  val eval_string :
    ?use_index:bool -> t -> string -> (doc_id * Toss_xml.Tree.Doc.node) list
  (** Parses the XPath first.
      @raise Xpath_parser.Error on syntax errors. *)

  val eq_lookup :
    t -> tag:string -> value:string -> (doc_id * Toss_xml.Tree.Doc.node) list
  (** Indexed exact-content lookup across all documents of this
      version. *)

  val tag_count : t -> string -> int
  val docs_with_tag : t -> string -> int

  val eq_count : t -> tag:string -> value:string -> int
  (** Leaf elements with the given tag and exact content, summed across
      all documents (forces the per-document indexes). *)

  val estimate_rows : t -> Xpath.t -> int
  (** Estimated result cardinality of the query: per union path, the
      number of elements matching the last step's name test, refined by
      its exact-content predicates through the value indexes ([Or] sums,
      [And] takes the minimum), capped at {!n_nodes}. Exact for the
      common rewritten shapes [//tag] and [//a/b[.='v' or ...]]; an
      estimate otherwise (intermediate steps are ignored). *)

  val subtrees :
    t -> (doc_id * Toss_xml.Tree.Doc.node) list -> Toss_xml.Tree.t list
  (** Rematerializes result nodes as trees, preserving result order. *)
end

val snapshot : t -> Snapshot.t
(** Pins the current version: an O(1), lock-free read of one atomic
    reference. The returned snapshot is immutable — queries against it
    are unaffected by concurrent or later {!add_document} calls — and
    may outlive any number of writes (it retains the documents of its
    version, which insert-only growth shares structurally with newer
    versions). *)

val add_document : t -> Toss_xml.Tree.t -> doc_id
(** Freezes and stores the tree, returning its id (ids are dense,
    starting at 0, in insertion order), and publishes a new version.
    Writers are serialized by an internal mutex — callers may write from
    any thread or domain — but the store-wide single-writer discipline
    (one logical writer per collection, see [docs/CONCURRENCY.md]) is
    the caller's responsibility where cross-structure atomicity matters
    (e.g. the server also appends to its persistence log).
    @raise Collection_full when the size limit would be exceeded. *)

val add_xml : t -> string -> (doc_id, Toss_xml.Parser.error) result
(** Parses and inserts. *)

val of_trees : ?name:string -> Toss_xml.Tree.t list -> t
(** A fresh collection holding the given trees, in order (so tree [i]
    has id [i]). Convenience for tests and the differential harness. *)

(** {1 Collection-level reads}

    Each call pins its own {!snapshot} and answers from it. Prefer an
    explicit snapshot when several reads must agree on a version. *)

val doc : t -> doc_id -> Toss_xml.Tree.Doc.t
(** @raise Not_found for unknown ids. *)

val index : t -> doc_id -> Index.t
(** The document's value index, built on first use.
    @raise Not_found for unknown ids. *)

val doc_ids : t -> doc_id list
(** Every stored id, in insertion order. *)

val n_documents : t -> int
(** Number of stored documents. *)

val size_bytes : t -> int
(** Total serialized size of all stored documents. *)

val n_nodes : t -> int
(** Total element count across all stored documents. *)

val eval : ?use_index:bool -> t -> Xpath.t -> (doc_id * Toss_xml.Tree.Doc.node) list
(** {!Snapshot.eval} against the current version. *)

val eval_string : ?use_index:bool -> t -> string -> (doc_id * Toss_xml.Tree.Doc.node) list
(** Parses the XPath first.
    @raise Xpath_parser.Error on syntax errors. *)

val eq_lookup : t -> tag:string -> value:string -> (doc_id * Toss_xml.Tree.Doc.node) list
(** Indexed exact-content lookup across all documents. *)

(** {1 Statistics}

    Per-term statistics backing the planner's selectivity estimates,
    cached per version (a new version starts with an empty cache). *)

val tag_count : t -> string -> int
(** Elements with the given tag, summed across all documents. *)

val docs_with_tag : t -> string -> int
(** Documents containing at least one element with the given tag. *)

val eq_count : t -> tag:string -> value:string -> int
(** Leaf elements with the given tag and exact content, summed across
    all documents (forces the per-document indexes). *)

val estimate_rows : t -> Xpath.t -> int
(** {!Snapshot.estimate_rows} against the current version. *)

val subtrees : t -> (doc_id * Toss_xml.Tree.Doc.node) list -> Toss_xml.Tree.t list
(** Rematerializes result nodes as trees, preserving result order. *)
