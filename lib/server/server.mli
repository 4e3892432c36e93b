(** The one serving front end: an accept loop over a {!Transport}
    address (Unix-domain socket or TCP) in front of {!Pool} and a
    backend {!exec} function. [toss serve] runs it over
    {!Engine.exec_traced}; [toss router] over [Toss_shard.Router.dispatch],
    which fans requests out to shard servers. Admission control,
    deadlines in the queue, out-of-order completion, the drain on
    shutdown, fd ownership and the [internal] guard below therefore
    hold for both processes.

    Request flow (the admission-control state machine documented in
    ARCHITECTURE.md; the MVCC/domain model in docs/CONCURRENCY.md):

    + a connection thread (a systhread — cheap, I/O-bound) reads one
      message and parses it. The connection's codec is negotiated from
      its first byte ({!Wire}): {!Protocol.binary_magic} opens a binary
      framed stream, anything else newline-delimited JSON. Responses
      are written in the connection's codec;
    + [ping], [stats], [metrics] and [shutdown] are passed to the
      backend inline on the connection thread, with no deadline — they
      must work even when the pool is saturated (that is how an
      operator observes an overloaded server). [shutdown] first drains
      the pool — every accepted request runs, later ones get
      [shutting_down] — then reaches the backend (a router stops its
      shards there, after its accepted requests have reached them), and
      is answered [{"stopping":true}]; then the server stops;
    + [insert], [query], [join] and [explain] are submitted to the
      domain pool with an absolute deadline stamped at admission.
      [Pool.submit] refusing the job produces the typed [overloaded]
      (queue full) or [shutting_down] error immediately — load is shed
      at the door, not buffered without bound;
    + a worker {e domain} re-checks the deadline when it dequeues the
      job (a request can die of old age while queued) and then calls
      the backend with the deadline and the trace id. Any exception the
      backend raises becomes a typed [internal] answer.

    Responses may therefore complete out of order on one connection;
    clients match them by [id]. One writer mutex per connection keeps
    response lines whole across writer domains.

    {2 Request-scoped observability}

    Every request is assigned a trace id (the client's ["trace_id"]
    field if it sent one, a generated one otherwise) and the id is
    echoed in the response. For pooled ops the id is installed in the
    worker domain's {!Toss_obs.Trace} slot around the backend call, so
    every span frame the request opens carries it. The span stack is
    domain-local, so each executed query's tree holds exactly that
    request, however many run in parallel. Reader systhreads never
    install a trace id (they share one domain's DLS across
    connections); inline ops are stamped directly in their log records
    instead.

    When [slow_ms] is set, every pooled request whose backend returned
    a span tree — for the engine, a query that missed the cache, or a
    join — and whose root span took at least [slow_ms] writes one
    {!Toss_obs.Span.slow_record} line to stderr, before its response is
    sent. Cache hits, inserts, explains and requests that failed
    mid-query (a deadline, say) build no tree and write no record.

    When [access_log] is set, the server appends one JSON line per
    request — before sending the response, so a client that has its
    answer can rely on the record existing. Schema (optional fields
    absent rather than null): [ts], [trace_id], [op], [collection],
    [version], [cache], [queue_s], [exec_s], [domain], [status], and —
    for requests selected by [trace_sample] — [trace], the full span
    tree. [status] is ["ok"] or the wire error code. Responses also
    carry [server_ms]/[queue_ms] so clients can split round-trip time
    (see {!Protocol}). *)

type exec =
  deadline:float option ->
  trace_id:string ->
  Protocol.envelope ->
  (Toss_json.t, Protocol.error) result * Toss_obs.Span.t option
(** A backend: answers one request envelope given its absolute
    [Unix.gettimeofday] deadline ([None] = none) and its trace id, and
    returns the answer's body plus the span tree of the work it ran, if
    it built one. Called from reader systhreads (inline ops) and from
    pool domains at once, so it must be domain-safe. *)

type config = {
  listen : Transport.addr;
      (** where to accept connections — a Unix-domain socket path or a
          TCP host/port (port [0] picks a free port; the resolved
          address is passed to [run]'s [ready]) *)
  domains : int;
      (** pool worker domains; parallel throughput scales with this up
          to the core count *)
  max_queue : int;
  default_deadline_ms : int option;
      (** applied when a request carries no [deadline_ms]; [None] means
          no deadline *)
  access_log : string option;
      (** append one JSONL record per request to this file (see the
          schema above); [None] disables the log *)
  trace_sample : int;
      (** record the full span tree into the access log for every Nth
          pooled request; [0] (the default) samples none. Sampling is
          head-based — the decision is made at admission — and costs
          nothing on unsampled requests. *)
  slow_ms : int option;
      (** slow-query log threshold in milliseconds (see above); [None]
          (the default) logs nothing, [Some 0] every executed query *)
}

val default_config : listen:Transport.addr -> config
(** 4 domains, queue of 64, no default deadline, no access log, no
    trace sampling, no slow-query log. *)

val run :
  ?ready:(string -> unit) -> config -> exec -> (unit, string) result
(** Binds the listen address (reclaiming a stale Unix socket file
    first), calls [ready] with the resolved address ({!Transport.parse}
    syntax; TCP port [0] is replaced by the kernel-assigned port) once
    listening, and serves requests through the backend until a
    [shutdown] request arrives. Drains the pool, closes every
    connection and removes the socket file (Unix transport) before
    returning. *)
