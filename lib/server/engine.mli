(** The backend of [toss serve]: one {!Toss_core.Session} plus the
    result cache and durable storage, on the MVCC read/write split.
    {!Server.run} is the front end; {!exec_traced} is what it calls.

    {2 Concurrency contract}

    [exec] is safe to call concurrently from any number of domains (the
    {!Pool} workers) and threads:

    - {b Reads} ([Query]/[Explain]) take no engine lock. Each request
      pins one (SEO, snapshot) capture via {!Toss_core.Session.pin} —
      the request's linearization point — and executes against it
      lock-free. The pinned version and SEO are what the result cache
      compares ({!Cache.find}), and the version is the one reported in
      the answer, so every answer names the exact state it ran against.
      A query is a cache [hit] (the entry is at the pinned version
      under the same SEO: nothing runs), a [delta] (the entry is older
      under the same SEO: the query runs over the documents inserted
      since, {!Toss_core.Session.since}, and their trees are appended)
      or a [miss] (the whole query runs); a delta and a miss publish
      their answer. A request with [cache:false] runs the whole query
      and neither looks up nor publishes.
    - {b Writes} ([Insert]) serialize on an internal write mutex: the
      session insert (which publishes the new collection version) and
      the document append to [db_dir] commit as one critical section.
      They leave the cache alone: an insert the SEO absorbs keeps the
      SEO, so the next read extends its entry; one that brings new
      vocabulary makes a new SEO, so every entry misses once. In-flight
      reads are unaffected — they keep answering at their pinned
      version; reads that pin after the write see the new version. A
      reader that publishes after a newer one cannot move an entry
      back: {!Cache.publish} never lowers its version.
    - [Stats]/[Metrics]/[Ping] touch only the domain-safe
      {!Toss_obs.Metrics} registry.

    [exec] is deadline-aware: the deadline is an absolute
    [Unix.gettimeofday] instant, checked on entry and then cooperatively
    inside the plan interpreter via {!Toss_core.Plan.run}'s [check]
    hook — per-request state, so cancellation is domain-safe. A missed
    deadline surfaces as the typed [deadline_exceeded] wire error, never
    a partial result. *)

type t

val create :
  ?db_dir:string ->
  ?metric:Toss_similarity.Metric.t ->
  ?eps:float ->
  ?cache_capacity:int ->
  unit ->
  (t, string) result
(** [db_dir]: hydrate the session from the database directory
    (created if missing) and append every subsequent insert to it.
    [metric] is the similarity measure (default Levenshtein, the
    {!Toss_core.Session} default); its name enters the cache-key
    fingerprint, so engines with different measures never share
    entries. [cache_capacity] of 0 disables the result cache
    (default 256; see {!Cache.create}). [Error] aggregates hydration failures
    ({!Toss_store.Persist.load_database}). *)

val exec :
  t -> deadline:float option -> Protocol.request -> (Toss_json.t, Protocol.error) result
(** Executes one request, from any domain (see the concurrency contract
    above). [Shutdown] is not the engine's business and answers like
    [Ping] (the server answers it and stops). *)

val exec_traced : t -> Server.exec
(** The engine as a {!Server} backend — what [toss serve] runs behind
    {!Server.run}. It is {!exec} of the envelope's request, and also
    returns the executed query's span tree when one was built: [Some]
    exactly for a [Query] or a [Join] whose executor ran to
    completion — rooted at [executor.select] or [executor.join]
    respectively; a cache delta's root carries [from_doc], the first
    document it ran over — and [None] otherwise: a cache hit runs nothing, a
    [PROJECT] query bypasses the executor, and a run that failed (a
    deadline, say) returns no tree. This is how the server records full
    traces for sampled requests and slow-query records at zero extra
    cost — the executor always builds the tree; the server merely
    chooses whether to serialize it. The trace id is not read here:
    the server installs it in the worker domain's {!Toss_obs.Trace}
    slot around the call, so every span already carries it. *)
