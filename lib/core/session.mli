(** A TOSS session: the assembled system of the paper's Figure 8.

    A session owns a set of named collections (the Xindice role), lazily
    precomputes one similarity-enhanced fused ontology over everything
    stored (Ontology Maker → fusion → SEA), and executes TQL queries in
    either semantics. Adding documents invalidates the precomputed SEO;
    it is rebuilt on the next query.

    {2 Rebuilds}

    A rebuild digests only the documents added since the last one: the
    session keeps each stored document's Maker ontology ({!Seo.digest})
    in a table keyed by (collection, doc id), filled lazily by the
    rebuild. It passes the last good SEO and the digests it just made
    to {!Seo.of_ontologies} as [previous]. When that SEO's fusion
    absorbs every new digest ({!Seo.absorbs}: fusing it in would add no
    node, add no ordering and merge nothing), the rebuild returns the
    SEO itself, and neither constraints, fusion nor SEA run. Otherwise
    fusion runs over every document's digest, and the enhancement is
    kept when the fused isa hierarchy is unchanged. An insert of a
    document that brings nothing new (a re-keyed copy, say) therefore
    costs one digest and the absorption test, which depend on that
    document's size, not on the collection's. A rebuild that fails or
    raises drops the last good SEO, so the next one is a full build.
    The table lives as long as the session, about 8 KB per
    DBLP paper (four times the paper's own document).

    {2 Concurrency}

    A session is safe to share across domains. Writes
    ({!add_document}/{!insert}) and the
    (SEO, snapshot) capture done by {!pin} are serialized by an internal
    mutex; query {e execution} ({!query_at}) holds no lock at all — it
    reads only the immutable pinned state, so any number of queries run
    in parallel with each other and with one writer. The mutex is never
    held during execution, only during the O(1) pin (plus the SEO
    rebuild on the first pin after a write, which is the one deliberate
    stop-the-world moment: the ontology is global precomputed state;
    after an absorbed insert it lasts one digest plus the absorption
    test). The digest table and the last good SEO are guarded by the
    same mutex. *)

type t

val create :
  ?metric:Toss_similarity.Metric.t ->
  ?eps:float ->
  ?lexicon:Toss_ontology.Lexicon.t ->
  ?content_tags:string list ->
  ?max_content_terms:int ->
  unit ->
  t
(** The default measure is Levenshtein with [eps = 2]. *)

val add_document : t -> collection:string -> Toss_xml.Tree.t -> unit

val insert :
  t -> collection:string -> Toss_xml.Tree.t -> Toss_store.Collection.doc_id
(** {!add_document} returning the new document's id — the server needs
    it to answer the insert and to append the document file to its
    [--db] directory. Serialized with other writes and with {!pin} by
    the session mutex; in-flight {!query_at} calls are unaffected (they
    keep answering at their pinned version). *)

val version : t -> collection:string -> int
(** The collection's monotonic write counter ({!Toss_store.Collection.version});
    [0] for collections that don't exist yet. Together with the
    collection name this identifies the exact state a query ran
    against — the result-cache key and the anchor of the concurrency
    stress test's replay check. *)

val seo : t -> (Seo.t, string) result
(** The precomputed context, rebuilding it if documents changed since the
    last call. The rebuild digests only the new documents and returns
    the previous SEO when its fusion absorbs them, or keeps its
    enhancement when the fused isa hierarchy is unchanged (see
    "Rebuilds" above); the result always equals a full build over
    every document. *)

type answer = {
  trees : Toss_xml.Tree.t list;
  stats : Executor.stats option;  (** [None] for projections *)
}

(** {2 Pinned queries}

    The parallel read path: {!pin} captures, atomically with respect to
    writers, the pair (SEO, collection snapshot) — one consistent
    version of the world. {!query_at} then executes against that capture
    with no locking, from whichever domain the caller chooses, and its
    answer is immune to concurrent inserts: a writer publishing version
    [v+1] mid-query never changes what a query pinned at [v] returns. *)

type pinned
(** One collection pinned at one version together with the SEO in force
    at that version. Immutable; may be used from any domain, any number
    of times, and outlives later writes. *)

val pin : t -> collection:string -> (pinned, string) result
(** Captures the collection's current snapshot and the current SEO under
    the session mutex — the linearization point of a read: everything a
    subsequent {!query_at} observes is decided here. Cheap when the SEO
    cache is warm (O(1) plus a mutex acquisition); rebuilds the SEO
    first if a write invalidated it, as {!seo} does: digests of the
    documents added since the last rebuild, then either the absorption
    test alone or fusion over every digest, and SEA only when the fused
    isa hierarchy changed. [Error] for unknown collections. *)

val pinned_version : pinned -> int
(** The pinned {!Toss_store.Collection.Snapshot.version} — what the
    server keys its result cache on and reports in answers. *)

val pinned_snapshot : pinned -> Toss_store.Collection.Snapshot.t
val pinned_seo : pinned -> (Seo.t, string) result
(** The captured SEO ([Error] when ontology construction failed —
    surfaced on use, as {!query} always has). *)

val since : pinned -> int -> pinned
(** The same pin restricted to the documents inserted after [version]
    ({!Toss_store.Collection.Snapshot.since}), under the same SEO.
    Selection and projection answer per document, so {!query_at} over
    it returns the trees that the answer at the pinned version adds to
    the answer at [version]: the result cache extends an entry with
    them. *)

val query_at :
  ?mode:Executor.mode ->
  ?check:(unit -> unit) ->
  pinned ->
  string ->
  (answer, string) result
(** Parses a TQL string and runs it against the pinned version
    (selection through the store executor, projection through the
    in-memory algebra). Takes no lock and touches no mutable session
    state: safe to call concurrently from any domain. [check] is the
    executor's cooperative cancellation checkpoint (see
    {!Executor.select}); anything it raises propagates out of this
    call. It is not consulted on projections, which bypass the plan
    interpreter. *)

val query :
  ?mode:Executor.mode ->
  ?check:(unit -> unit) ->
  t ->
  collection:string ->
  string ->
  (answer, string) result
(** [{!pin} + {!query_at}]: runs against the version current at call
    time. *)

type pinned2
(** Two collections pinned together at one mutually consistent pair of
    versions, with the SEO in force — what a join executes against.
    Immutable and domain-safe, like {!pinned}. *)

val pin2 : t -> left:string -> right:string -> (pinned2, string) result
(** Pins both collections under one mutex acquisition — the
    linearization point of a join read. [Error] names the first unknown
    collection. *)

val pinned2_versions : pinned2 -> int * int
(** The (left, right) pinned versions — the server's join-cache key and
    what it reports in answers. *)

val join_at :
  ?mode:Executor.mode ->
  ?check:(unit -> unit) ->
  pinned2 ->
  string ->
  (answer, string) result
(** Parses a TQL join (the pattern root must have two children, see
    {!Executor.join}) and runs it against the pinned pair. Lock-free and
    domain-safe as {!query_at}; [check] is the cooperative cancellation
    checkpoint, consulted inside the pairing probe loop. *)
