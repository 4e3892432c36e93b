(** Client for the [toss serve] wire protocol: the engine of
    [toss client] and [toss loadgen], and the in-process harness of the
    server tests.

    {!call} is synchronous (send one message, read one message). A
    transport failure (connect refused, EOF mid-response, malformed
    response) is distinguished from a typed wire error so callers can
    tell "the server said no" from "there is no server". *)

type t

type failure =
  | Wire of Protocol.error  (** the server answered [ok:false] *)
  | Transport of string  (** connection or framing failure *)

val failure_to_string : failure -> string

val connect :
  ?codec:Protocol.codec -> ?retry_ms:int -> string -> (t, string) result
(** Connects to a {!Transport.parse} address ([tcp:HOST:PORT],
    [unix:PATH], or a bare socket path). [codec] defaults to [Json];
    [Binary] sends {!Protocol.binary_magic} immediately so the whole
    connection is binary-framed both ways. [retry_ms] bounds
    {!Transport.connect}'s exponential-backoff retry on
    connection-refused (default 1000 ms) — it papers over the gap
    between a server binding its socket and accepting. *)

val codec : t -> Protocol.codec
val close : t -> unit

val call :
  t ->
  ?id:int ->
  ?deadline_ms:int ->
  ?trace_id:string ->
  ?allow_partial:bool ->
  Protocol.request ->
  (Toss_json.t, failure) result
(** One request, one response payload. [trace_id] names the request in
    the server's logs (validated server-side, echoed in the response —
    use {!call_response} to read the echo). *)

val call_response :
  t ->
  ?id:int ->
  ?deadline_ms:int ->
  ?trace_id:string ->
  ?allow_partial:bool ->
  Protocol.request ->
  (Protocol.response, failure) result
(** Like {!call} but returns the whole response envelope — trace id,
    [server_ms], [queue_ms] and the body (which may itself be a wire
    error; only transport failures surface as [Error]).
    [allow_partial] opts into partial results from the sharded router
    (see {!Protocol.envelope}). *)
