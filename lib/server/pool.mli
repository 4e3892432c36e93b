(** Fixed domain pool with a bounded queue — the server's
    admission-control {e and} parallelism stage.

    Each worker is an OCaml 5 {!Domain.t}, so jobs on different workers
    run truly in parallel (queries execute against pinned immutable
    snapshots and hold no lock — see {!Engine} and [docs/CONCURRENCY.md]).
    Keep the worker count at or below the machine's core count; domains
    are heavyweight compared to threads and the runtime recommends few
    of them.

    [submit] never blocks and is safe to call from any thread or domain:
    a job either enters the queue ([Accepted]), is shed because the
    queue is at [max_queue] ([Overloaded] — the wire's typed
    [overloaded] error), or is refused because the pool is stopping
    ([Stopped]). Workers dequeue FIFO.

    Queue depth and in-flight jobs are published as the
    [server.queue.depth] and [server.inflight] gauges; shed jobs count
    [server.shed.total]. Every dequeued job's admission→dequeue wait is
    observed into the [pool.queue_wait.seconds] histogram and passed to
    the job itself as [~queue_wait_s], so the server can echo queueing
    delay per response and the access log can record it.

    [domains = 0] is allowed: nothing ever dequeues, so with
    [max_queue = 0] every submit is shed — the deterministic overload
    configuration the cram tests rely on. *)

type t

type outcome = Accepted | Overloaded | Stopped

val create : domains:int -> max_queue:int -> t
(** Spawns [domains] worker domains immediately. *)

val submit : t -> (queue_wait_s:float -> unit) -> outcome
(** Exceptions escaping the job are swallowed (the job is responsible
    for reporting its own errors to its client). The job may run on any
    worker domain; anything it closes over must be domain-safe.
    [queue_wait_s] is the seconds the job sat in the queue between
    admission and dequeue (clamped non-negative against clock steps). *)

val stop : t -> unit
(** Stops accepting work, lets workers drain the queue, then joins
    them. Idempotent: a concurrent or later call also returns only once
    every worker is joined. *)
