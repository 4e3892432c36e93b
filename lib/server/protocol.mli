(** The wire protocol of [toss serve]: one request, one response, in
    either of two codecs sharing one JSON-value representation.

    The default codec is newline-delimited JSON — one request object
    per line, one response line per request — kept for debuggability
    (`echo '{"op":"ping"}' | nc -U …` works). The alternative is a
    length-prefixed binary framing of the same values: a client opens
    it by sending the single magic byte {!binary_magic} immediately
    after connecting (no JSON line can start with that byte, so the
    first byte of a connection names its codec); every subsequent
    message in {e both} directions is a frame — a 4-byte big-endian
    payload length (at most {!max_frame}) followed by the payload, a
    tagged binary encoding of the message's JSON value
    ({!encode_binary}). Both codecs serialize exactly
    {!request_to_json}/{!response_to_json}, so a response decodes to
    the same value under either — the cross-codec equivalence the
    server tests check.

    A request is an object with an ["op"] field selecting the
    operation, an optional client-chosen ["id"] echoed back verbatim in
    the response (so a pipelining client can match responses to
    requests), an optional ["deadline_ms"] overriding the server's
    default deadline for this request, an optional ["trace_id"] (1–128
    printable ASCII characters) naming the request in the server's
    logs — the server generates one when absent, and either way echoes
    it in the response — and an optional ["allow_partial"] boolean (the
    sharded router's partial-result opt-in; a single server ignores
    it). Responses are [{"id":…, "trace_id":…, "ok":true, "result":…,
    "server_ms":…, "queue_ms":…}] or the same envelope with
    [{"ok":false, "error":{"code":…, "message":…}}]; [server_ms] is
    server-measured execution time and [queue_ms] time spent waiting
    for a worker, so clients can split round-trip latency into queueing
    vs execution vs network.

    A query's [result] is [{"collection", "version", "count",
    "compute_ms", "trees", "cache"}]: [trees] in document order,
    [compute_ms] what the run that produced them took, and [cache] the
    path this request took through the result cache ({!Cache}) —
    ["hit"] (served as stored), ["delta"] (the stored answer extended
    by the documents inserted since) or ["miss"] (computed whole, also
    when the request set [cache:false]). A router's merged answer is
    ["hit"] when every shard hit, ["miss"] when any shard missed, and
    ["delta"] otherwise.

    Error codes are a closed vocabulary so clients can switch on them:

    - [bad_request] — the message was a valid value but not a valid
      request (unknown op, missing field, wrong type);
    - [parse_error] — the line was not JSON / the frame was truncated,
      oversized or undecodable, or an insert carried unparseable XML;
    - [unknown_collection] — the named collection does not exist;
    - [query_error] — TQL parse or execution failure;
    - [overloaded] — admission control shed the request (queue full);
    - [deadline_exceeded] — the deadline passed while queued or
      mid-execution;
    - [shutting_down] — the server is stopping and accepts no new work;
    - [shard_unavailable] — the sharded router could not reach every
      shard a request needs (send ["allow_partial"] to accept the
      survivors' merged answer instead);
    - [internal] — the request raised an unexpected exception inside the
      server (e.g. a persistence I/O failure); the request got no normal
      answer but the connection and server remain usable. *)

type error_code =
  | Bad_request
  | Parse_error
  | Unknown_collection
  | Query_error
  | Overloaded
  | Deadline_exceeded
  | Shutting_down
  | Shard_unavailable
  | Internal

type error = { code : error_code; message : string }

val code_name : error_code -> string
(** The wire name, e.g. ["deadline_exceeded"]. *)

val error : error_code -> string -> error

type request =
  | Ping
  | Insert of { collection : string; xml : string }
  | Query of {
      collection : string;
      tql : string;
      mode : Toss_core.Executor.mode;  (** default [Toss] *)
      cache : bool;
          (** consult, extend and populate the result cache; default
              true *)
    }
  | Join of {
      left : string;
      right : string;
      tql : string;
      mode : Toss_core.Executor.mode;  (** default [Toss] *)
    }
      (** Condition join of two collections: the TQL pattern root's two
          children match [left] and [right] respectively. Joins bypass
          the result cache: its entries are kept per collection, and a
          join's answer does not grow by appending one side's new
          documents (each pairs with every document of the other). *)
  | Explain of {
      collection : string;
      tql : string;
      mode : Toss_core.Executor.mode;
    }
  | Stats
  | Metrics
      (** Prometheus text exposition of the server's metrics registry *)
  | Shutdown

val op_name : request -> string
(** The ["op"] field value — also the label of the server's per-op
    request metrics. *)

type envelope = {
  id : int option;  (** echoed back in the response *)
  deadline_ms : int option;  (** per-request deadline override *)
  trace_id : string option;
      (** client-chosen trace id ({!Toss_obs.Trace.is_valid} enforced
          at parse time); the server generates one when [None] *)
  allow_partial : bool;
      (** router only: accept a merged answer from the reachable shards
          when some shard is down, instead of [shard_unavailable] *)
  request : request;
}

val request_to_json : envelope -> Toss_json.t
(** The codec-independent encoding of a request — what both the JSON
    line and the binary frame serialize. *)

val request_of_json : Toss_json.t -> (envelope, error) result
(** Decodes a request value (either codec's payload). [Error] is
    always [bad_request] — the value parsed, but is not a request. *)

val parse_request : string -> (envelope, error) result
(** Decodes one JSON request line. [Error] distinguishes [parse_error]
    (not JSON, or nested deeper than {!Toss_json.max_depth}) from
    [bad_request] (JSON, but not a request). *)

val request_to_line : envelope -> string
(** Encodes a request as one JSON line (no trailing newline) — the
    client side of {!parse_request}. *)

type response = {
  rid : int option;  (** the request's [id], if it carried one *)
  rtrace_id : string option;  (** the request's trace id, echoed *)
  server_ms : float option;  (** server-side execution time *)
  queue_ms : float option;  (** time spent queued before a worker *)
  body : (Toss_json.t, error) result;
}

val response :
  ?id:int ->
  ?trace_id:string ->
  ?server_ms:float ->
  ?queue_ms:float ->
  (Toss_json.t, error) result ->
  response
(** Convenience constructor; omitted options render as absent fields. *)

val response_to_json : response -> Toss_json.t
val response_of_json : Toss_json.t -> (response, string) result

val response_to_line : response -> string
(** Encodes a response as one JSON line (no trailing newline). *)

val parse_response : string -> (response, string) result
(** Decodes one JSON response line — the client side of
    {!response_to_line}. *)

(** {1 Binary codec} *)

type codec = Json | Binary

val codec_name : codec -> string
(** ["json"] / ["binary"] — the CLI's [--codec] values. *)

val binary_magic : char
(** [0xB1] — sent once by a binary client as the very first byte of the
    connection. JSON requests start with ['{'] or whitespace, so the
    first byte is unambiguous. *)

val max_frame : int
(** Upper bound (64 MiB) on a frame payload; a frame whose header
    announces more is rejected as [parse_error] without allocating. *)

val encode_binary : Toss_json.t -> string
(** The tagged binary encoding of one value (no frame header): [N]
    null, [T]/[F] booleans, [D] + 8-byte big-endian IEEE-754 double,
    [S] + u32 length + bytes, [A] + u32 count + values, [O] + u32 count
    + (u32 key length + key + value) pairs. *)

val decode_binary : string -> (Toss_json.t, error) result
(** Inverse of {!encode_binary} over exactly one value; every rejection
    (truncation, range, unknown tag, trailing bytes, nesting deeper than
    {!Toss_json.max_depth}, the JSON codec's cap) is a typed
    [parse_error], never an exception. *)

val encode_frame : Toss_json.t -> string
(** 4-byte big-endian payload length + {!encode_binary} payload. *)

val decode_frame : string -> (Toss_json.t, error) result
(** Decodes exactly one frame; truncated input and oversized lengths
    are typed [parse_error]s. *)

val frame_length : string -> (int, error) result
(** Reads a frame header from the first 4 bytes: the payload length, or
    [parse_error] if the input is shorter than a header or the length
    exceeds {!max_frame} — the streaming check {!Wire} applies before
    allocating a frame buffer. *)
