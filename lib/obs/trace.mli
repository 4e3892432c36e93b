(** Per-request trace context.

    A trace id is an opaque string correlating everything one request
    did: the server stamps it on every {!Span} frame opened while the
    request executes, echoes it in the response, and keys the access
    log and slow-query records by it. Clients may
    supply their own id (to join server records with their logs); the
    server generates one otherwise.

    The current id lives in a [Domain.DLS] slot — {b domain-local},
    like the span stack: each pool domain runs one request at a time,
    so wrapping the request body in {!with_id} scopes the id to exactly
    that request's spans. Systhreads within one domain share
    the slot; code running on shared-domain threads (the server's
    connection readers) must not set it. Plain CLI runs never set a
    trace id, and nothing is stamped when the slot is empty. *)

val get : unit -> string option
(** The calling domain's current trace id, if inside {!with_id}. *)

val with_id : string -> (unit -> 'a) -> 'a
(** [with_id id fn] runs [fn] with the calling domain's trace slot set
    to [id], restoring the previous value (even on exceptions). Nesting
    is allowed; the innermost id wins. *)

val generate : unit -> string
(** A fresh 16-hex-digit id — unique within the process (atomic
    counter) and seeded from wall-clock + pid so ids from different
    server runs are unlikely to collide. Safe from any domain. *)

val is_valid : string -> bool
(** Whether a client-supplied id is acceptable on the wire: 1–128
    printable non-space ASCII characters. The server rejects anything
    else as [bad_request] rather than copying arbitrary bytes into
    logs. *)
