(** Result series: the machine-readable form of an experiment's table.

    Each bench prints a human table and can also persist the same rows as
    CSV plus a gnuplot script, so the paper's figures can be re-plotted
    from a run's artifacts. *)

type t = { name : string; columns : string list; rows : string list list }

val v : name:string -> columns:string list -> string list list -> t
(** @raise Invalid_argument when a row's width differs from the header's
    or the name is empty. *)

val to_csv : t -> string
(** RFC-4180-style: fields containing commas, quotes or newlines are
    quoted, quotes doubled. First line is the header. *)

val save_csv : dir:string -> t -> string
(** Writes [<dir>/<name>.csv] (creating [dir]) and returns the path. *)

val gnuplot_script : t -> string
(** A gnuplot source that plots every column against the first, reading
    [<name>.csv]; a convenience for regenerating the paper's line
    figures. *)

val to_json : ?metrics:string -> t -> string
(** The series as a JSON object [{"name", "columns", "rows"}]. [metrics],
    when given, must be a pre-rendered JSON value (e.g.
    [Toss_obs.Metrics.to_json] of a snapshot) and is embedded verbatim
    under a ["metrics"] key, so a run's artifact carries the
    observability counters that produced it. *)

val save_all : dir:string -> ?metrics:string -> t list -> string list
(** CSVs plus one [.gp] and one [.json] per series; returns all written
    paths. [metrics] is embedded in each JSON artifact. *)
