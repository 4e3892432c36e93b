(** Result series: the machine-readable form of an experiment's table.

    Each bench prints a human table and can also persist the same rows as
    CSV plus a gnuplot script, so the paper's figures can be re-plotted
    from a run's artifacts. *)

type t = { name : string; columns : string list; rows : string list list }

val v : name:string -> columns:string list -> string list list -> t
(** @raise Invalid_argument when a row's width differs from the header's
    or the name is empty. *)

val save_all : dir:string -> ?metrics:Toss_json.t -> t list -> string list
(** CSVs plus one [.gp] and one [.json] per series; returns all written
    paths. [metrics] is embedded in each JSON artifact. *)
