(** The router's static shard map: which shard owns which document.

    A map is a fixed, ordered list of shard addresses plus the set of
    {e replicated} collection names. Collections not in that set are
    {e partitioned}: each inserted document lands on exactly one shard
    ({!owner}, a hash of the collection name and the router-assigned
    document sequence number), and queries fan out to every shard and
    merge. Replicated collections store every document on every shard;
    queries route to any single shard, and they make joins against
    partitioned collections exact (see {!Router}).

    {2 Vocabulary shadows}

    TOSS similarity semantics are corpus-sensitive: the session builds
    one similarity-enhanced ontology (SEO) over the vocabulary of {e
    all} documents, and a string's cluster assignment depends on what
    other strings exist. Partitioning naively would give each shard a
    different SEO and make merged answers diverge from a single
    server's. The router therefore mirrors every partitioned insert to
    the non-owner shards under the {!shadow} name [".vocab.C"] — the
    document feeds every shard's ontology but never matches a query
    against [C] (patterns match within one collection). Every shard
    thus holds the full vocabulary, its SEO equals the unsharded
    server's, and per-shard answers merge into exactly the unsharded
    answer. Shadow names are reserved: the router rejects client
    requests that name them ({!is_shadow}). *)

type t

val make :
  shards:string list -> replicated:string list -> (t, string) result
(** Validates that there is at least one shard and that every address
    parses ({!Toss_server.Transport.parse} syntax: [tcp:HOST:PORT],
    [unix:PATH], or a bare socket path). *)

val n : t -> int
(** Number of shards. *)

val addr : t -> int -> string
(** Address of shard [i] (0-based, in [make]'s order). *)

val replicated : t -> string -> bool
(** Whether [collection] is replicated on every shard. *)

val owner : t -> collection:string -> seq:int -> int
(** The shard owning document number [seq] of a partitioned
    collection: a splitmix64 finalizer over an FNV-1a hash of the
    collection name mixed with [seq], mod {!n}. Deterministic, so a
    restarted router with the same map and counters routes
    identically. *)

val shadow : string -> string
(** [shadow "C"] is [".vocab.C"] — the name non-owner shards store a
    partitioned document under so their ontology sees its vocabulary. *)

val is_shadow : string -> bool
(** Whether a collection name is in the reserved shadow namespace. *)
