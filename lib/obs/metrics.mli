(** Process-wide metrics registry.

    A single global registry of named, labelled series — counters, gauges
    and histograms — in the style of a Prometheus client, sized for a
    single-process OCaml server: registration returns a typed handle whose
    update operations are plain field mutations, so instrumenting a hot
    path costs a few nanoseconds and never allocates. The registry can be
    snapshotted at any time; snapshots render as an aligned text table
    (for the CLI) or as JSON (for the bench harness artifacts).

    Series identity is the [(name, labels)] pair: registering the same
    pair twice returns the same handle, so modules can register their
    instruments at top level without coordination. Registering a name
    under two different kinds raises [Invalid_argument].

    {2 Thread safety}

    The registry is domain-safe: queries run in parallel on the server's
    domain pool and all of them instrument these series. Counter and
    gauge updates are single atomic operations (lock-free, no updates
    lost under contention); each histogram serializes its observations
    with its own mutex; registration, {!snapshot} and {!reset} serialize
    on a registry mutex. {!snapshot} reads each cell atomically (per-cell
    for counters/gauges, under the histogram's mutex for distributions),
    so a snapshot taken mid-storm contains each series at one instant —
    though different series are read at slightly different instants. *)

type labels = (string * string) list
(** Label pairs, e.g. [["phase", "execute"]]. Order-insensitive:
    labels are sorted at registration. *)

(** {1 Typed handles}

    Hot paths register at top level. A call site whose label varies per
    call over a small set (a per-op request count, a per-code error
    count) resolves its handles through {!per_label}, once per label
    value; a cold one may register where it updates, which costs a
    lock and a hash lookup per call. *)

type counter
(** Monotonically increasing integer. *)

type gauge
(** A float free to go up and down. *)

type histogram
(** Distribution summary: count, sum, min, max, and counts in
    log-scaled buckets (decade upper bounds from [1e-6] to [1e4],
    plus +inf) — wide enough for both second-scale durations and
    fan-out counts. *)

val counter : ?labels:labels -> string -> counter
(** Registers (or retrieves) the counter [(name, labels)]. *)

val gauge : ?labels:labels -> string -> gauge
(** Registers (or retrieves) the gauge [(name, labels)]. *)

val histogram : ?labels:labels -> string -> histogram
(** Registers (or retrieves) the histogram [(name, labels)]. *)

val per_label : (string -> 'a) -> string -> 'a
(** [per_label register] memoizes [register] by its argument, a label
    value: the first call for a value registers its series (so the
    registry, and a snapshot, hold only the values seen), and every
    later call returns the handle without taking the registry lock.
    Domain-safe; a hit reads one atomic and probes an immutable map. *)

val incr : ?by:int -> counter -> unit
(** Adds [by] (default 1) to the counter. Negative [by] raises
    [Invalid_argument]: counters only go up. *)

val set : gauge -> float -> unit
(** Sets the gauge's current value. *)

val observe : histogram -> float -> unit
(** Records one observation. *)

val observe_int : histogram -> int -> unit
(** [observe] of an integer quantity (fan-outs, candidate counts). *)

(** {1 Snapshots} *)

type histogram_stats = {
  count : int;
  sum : float;
  min : float;  (** [nan] when [count = 0] *)
  max : float;  (** [nan] when [count = 0] *)
  buckets : (float * int) list;
      (** [(upper_bound, cumulative_count)] per bucket; the last bound is
          [infinity], whose count equals [count]. *)
}

type value = Counter of int | Gauge of float | Histogram of histogram_stats

type snapshot = (string * labels * value) list
(** Sorted by name, then labels, for deterministic output. *)

val snapshot : unit -> snapshot
(** A consistent copy of every registered series. *)

val reset : unit -> unit
(** Zeroes every series {e in place}: registrations survive, and —
    because a handle aliases the registered cell rather than a copy — a
    [counter]/[gauge]/[histogram] handle obtained {e before} the reset
    keeps recording into the same (now zeroed) series afterwards. There
    is no stale-handle hazard: modules may register their instruments
    once at load time no matter how often the registry is reset. Used by
    the bench harness to scope a snapshot to one experiment and by tests
    for isolation. *)

val names : snapshot -> string list
(** The distinct series names of a snapshot, sorted. *)

val find_counter : snapshot -> ?labels:labels -> string -> int option
(** The counter's value in the snapshot, if that series exists. *)

val find_gauge : snapshot -> ?labels:labels -> string -> float option
(** The gauge's value in the snapshot, if that series exists. *)

val find_histogram : snapshot -> ?labels:labels -> string -> histogram_stats option
(** The histogram's summary in the snapshot, if that series exists. *)

val quantile : histogram_stats -> float -> float
(** [quantile stats q] estimates the [q]-quantile ([q] clamped to
    [0, 1]) by linear interpolation inside the log-scaled bucket holding
    the target rank, clamped to the observed [min]/[max]. Exact when
    every observation is equal (the interpolation interval collapses to
    that value); otherwise accurate to within the bucket's decade.
    [nan] when the histogram is empty. *)

val to_table : snapshot -> string
(** An aligned, human-readable table: one line per series; histograms
    show count/mean/p50/p95/p99/max ({!quantile} estimates). *)

val to_json : snapshot -> Toss_json.t
(** A JSON object with ["counters"], ["gauges"] and ["histograms"]
    sub-objects keyed by [name{k="v",...}]; histogram objects carry
    count/sum/min/max, the {!quantile} estimates ["p50"]/["p95"]/["p99"],
    and the cumulative buckets. An empty histogram's NaN statistics are
    [null]. *)

val to_prometheus : snapshot -> string
(** Prometheus text exposition (format 0.0.4) of the snapshot — what
    the server's [metrics] op returns, scrapeable by stock Prometheus.
    Registry names are sanitized to the exposition charset (every byte
    outside [[a-zA-Z0-9_]] becomes ['_'], so ["pool.queue_wait.seconds"]
    renders as [pool_queue_wait_seconds]); each metric gets one
    [# TYPE] header followed by all its label sets. Counters and gauges
    are one sample each; a histogram renders its cumulative
    [name_bucket{le="…"}] series (the registry's decade bounds,
    closing with [le="+Inf"]) plus [name_sum] and [name_count]. Label
    values escape backslash, quote and newline; non-finite numbers
    render as [NaN]/[+Inf]/[-Inf]. *)
