(** [toss router]: a scatter-gather backend that fans requests out
    over a static {!Shard_map} and merges the answers, so a client
    cannot tell a sharded deployment from a single server. It keeps only
    routing, merging and the shard connection pools: the front end is
    {!Toss_server.Server.run} with {!dispatch} as its backend, the same
    front end [toss serve] runs over its engine. The router therefore
    inherits the server's admission control ([overloaded] when its queue
    is full), its deadline check in the queue, out-of-order completion
    matched by [id], the drain on shutdown and the [internal] guard.
    Pipelined writes on one connection may apply in either order, as on
    [toss serve].

    {2 Routing}

    - [insert] into a partitioned collection goes to the {!Shard_map.owner}
      shard under the collection's own name, and to every other shard
      under the {!Shard_map.shadow} name — the vocabulary mirror that
      keeps every shard's similarity ontology equal to an unsharded
      server's (see {!Shard_map}). Inserts into a replicated collection
      go to every shard verbatim. The router serializes inserts so
      replicas and its own per-collection sequence counters stay
      consistent; the reported [doc_id]/[version] are the router's
      logical numbering (identical to an unsharded server's), not any
      one shard's.
    - [query] on a partitioned collection fans out to all shards and
      merges: trees concatenated and canonicalized with
      {!Toss_check.Diff.canonical} (the multiset normal form the
      differential harness compares in), [version] = sum of shard
      versions, [count] = merged tree count, [cache] = ["hit"] iff
      every shard hit, plus a per-shard array of
      [{shard, addr, server_ms, queue_ms, count}]. A shard that does
      not know the collection contributes an empty partition;
      [unknown_collection] propagates only when {e every} shard reports
      it. Queries on replicated collections go to one shard (failing
      over in map order) and pass through verbatim.
    - [join] is exact when at least one side is replicated: the fan-out
      computes [L_i ⋈ R] per shard and the merged union is the full
      join. Both sides replicated routes to a single shard; both sides
      partitioned (with more than one shard) is a typed [query_error].
    - [explain] is answered by the first shard that knows the
      collection; [stats] by the router's own metrics registry;
      [metrics] merges every shard's Prometheus exposition, tagging
      each sample with a [shard="N"] label (the router's own samples
      get [shard="router"]); [shutdown] cascades to every shard and
      then stops the router.

    {2 Partial results}

    An unreachable shard fails the requests that need it with the typed
    [shard_unavailable] error. A request carrying ["allow_partial":true]
    instead gets the merge of the reachable shards' answers, stamped
    [{"partial":true, "failed":[addr, …]}] — except inserts, which are
    never partial (a half-applied insert would silently diverge the
    shards), and except when no shard at all is reachable.

    {2 Trace ids and budgets}

    The trace id goes to every shard hop; the router→shard hop always
    uses the binary codec. Each hop carries the time left before the
    request's deadline (whole milliseconds, rounded up), not the
    client's original [deadline_ms]. A spent budget is never forwarded:
    the hop answers [deadline_exceeded] without contacting the shard —
    not even to connect. Two kinds of insert hop carry no deadline,
    because a hop cut short would leave the shards diverged: the
    vocabulary shadows of an insert that has committed on its owner
    shard, and the copies of a replicated insert. A replicated insert
    checks the budget once, before anything is sent, so it reaches
    every replica or none. *)

type t
(** The shard connection pools, the insert lock and the per-collection
    sequence counters. Domain-safe: {!dispatch} runs on the server's
    pool domains and reader threads at once. *)

val create : ?connect_retry_ms:int -> Shard_map.t -> t
(** [connect_retry_ms] (default 1000) is the backoff budget per shard
    connect (see {!Toss_server.Transport.connect}). Connects lazily. *)

val domains : int
(** The pool worker domains [toss router] runs with: 2. Each costs
    about 3 MB of resident memory. *)

val max_queue : int
(** The queue bound [toss router] runs with: 4096 requests, the bound
    the serving benchmark gives its shards so that a host stall does not
    shed. A router worker mostly waits on its shards, so while they
    stall (each insert makes them rebuild their ontologies) requests
    pile up in the router's queue, and [toss serve]'s default of 64 shed
    requests that a router with no bound had served. More workers in
    place of a longer queue bought no latency and cost throughput at
    saturation (SCALING.md, "Workers and queue"). *)

val dispatch : t -> Toss_server.Server.exec
(** The router as a {!Toss_server.Server} backend. It records the
    [router.requests.total], [router.request.seconds] and
    [router.errors.total] metrics per request and builds no span tree.
    [shutdown] cascades to every shard before it returns. *)

val close : t -> unit
(** Closes the idle shard connections; call once {!Toss_server.Server.run}
    has returned. *)
