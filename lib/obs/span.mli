(** Lightweight tracing spans.

    A span measures one named region of execution: wall-clock time,
    and — when tracing is {!set_enabled} — the allocation delta over the
    region (via [Gc.quick_stat]). Spans nest: a {!with_} call inside
    another becomes a child in the finished tree, in execution order.

    The span tree is the only record of a query run: the executor's
    phase statistics, EXPLAIN ANALYZE, the access log's sampled traces
    and the slow-query log ({!slow_record}) are all views over it.

    Cost model: a span always records wall-clock time (two
    [Unix.gettimeofday] calls — the executor's phase statistics are a
    view over the span tree, so timing cannot be optional), but GC
    sampling only happens when tracing is enabled. Tracing is
    {e disabled by default}, so instrumented code pays the same clock
    reads the hand-rolled timing did.

    Concurrency: the open-span context is {e domain-local}, so queries
    tracing on separate pool domains build independent, correctly
    nested trees in parallel — each finished tree holds exactly one
    request. Systhreads within one domain share that domain's context —
    interleaved spans from such threads can attach to the wrong parent
    (never crash); keep span-producing work one-per-domain, as the
    server does. The tracing flag is shared across domains (an
    [Atomic]). *)

type t = {
  name : string;
  elapsed_s : float;  (** wall-clock duration *)
  alloc_bytes : float;
      (** bytes allocated during the span (minor + major − promoted);
          [0.] when tracing was disabled *)
  meta : (string * string) list;
      (** caller-supplied annotations; when the opening domain had a
          {!Trace} id set, a [("trace_id", id)] pair is prepended at
          open time, so every node of a request's tree self-identifies *)
  children : t list;  (** sub-spans, in execution order *)
}

val set_enabled : bool -> unit
(** Turns GC sampling on or off (default off). *)

val with_ : ?meta:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_ name fn] runs [fn] inside a span. If a span is already open,
    the new span becomes its child; otherwise it is a root, which is
    discarded on completion (use {!run} to keep a root). The span is
    finished even when [fn] raises. *)

val annotate : (string * string) list -> unit
(** Appends key/value pairs to the {e innermost open} span's [meta]
    (after any pairs given at {!with_} time); a no-op when no span is
    open. This is how an operator attaches actuals that are only known
    once it has run — the store annotates the executor's per-label
    [xpath] span with [rows]/[indexed]/[scanned], the embedder its
    [embed] span with candidate counts — which is what the CLI's
    [--explain-analyze] tree renders. *)

val run : ?meta:(string * string) list -> string -> (unit -> 'a) -> 'a * t
(** Like {!with_}, but also returns the finished span — how the executor
    obtains the trace it exposes in its statistics. [run] always starts a
    fresh root (it detaches from any enclosing span), nested {!with_}
    calls attach as children. When [fn] raises, the exception propagates
    and no tree is returned. *)

(** {1 Inspection} *)

val find : t -> string -> t option
(** First span named [name] in a preorder walk (the span itself first). *)

val self_s : t -> float
(** Duration not covered by the span's direct children. *)

val pp : Format.formatter -> t -> unit
(** Indented tree: one line per span with duration, share of the root,
    and allocation. *)

val to_string : t -> string

val to_json : t -> string
(** Nested JSON object mirroring the span tree. Names, meta keys and
    meta values are written as JSON string literals (UTF-8 passes
    through, control bytes become [\uXXXX]), so the output is valid JSON
    whatever a client put into the meta, e.g. a collection name. *)

(** {1 Slow-query log} *)

val slow_record : threshold_s:float -> t -> string option
(** The slow-query log's record for a finished root span: [None] when
    the root ran for less than [threshold_s] seconds, otherwise one JSON
    line (no trailing newline):
    [{"type":"slow_query","trace_id":…,"threshold_s":…,"elapsed_s":…,
    "trace":{…}}], where [elapsed_s] is the root's own duration and
    [trace] its {!to_json} tree. [trace_id] is read from the root's
    [meta] and the field is omitted when the root carries none (runs
    outside a {!Trace.with_id}, such as the CLI's). [threshold_s = 0.]
    logs every root. *)
