(** Perf-suite records and the regression gate.

    A record is the JSON artifact of one perf-suite run: per-kernel
    median latencies. The gate ({!compare_runs}) reads rounds of parent
    and change records measured on the same runner, so a failure means
    the change is slower, not that the machine is: each kernel's
    change/parent ratio is taken per round, and the kernel fails when
    the median of those ratios exceeds [1 + tolerance]. *)

type entry = { median_s : float; runs : int }

type t = {
  label : string;  (** suite identity, e.g. ["toss-perf-suite"] *)
  entries : (string * entry) list;  (** experiment name -> measurement *)
}

val v : label:string -> (string * entry) list -> t

val save : path:string -> t -> unit
val load : path:string -> (t, string) result

val median : t list -> t
(** The per-kernel median of several records of one suite: each kernel
    (in first-seen order) gets the median of its medians over the
    records that measured it — the upper of the two middle values for an
    even count — and [runs] counts every timed run behind it. The label
    is the first record's.
    @raise Invalid_argument on an empty list. *)

(** {1 The gate} *)

val tolerance : float
(** [0.2]: a kernel fails when its median change/parent ratio exceeds
    [1.2]. *)

type verdict = {
  name : string;
  parent_s : float;
      (** {!median} of the parent rounds; [nan] for a kernel new in the
          change *)
  change_s : float;
      (** {!median} of the change rounds; [nan] when no change round
          measured it *)
  ratio : float;
      (** median over rounds of change ÷ parent; [nan] when a change
          round misses the kernel, and for a new kernel *)
  ok : bool;
}

val compare_runs : (t * t) list -> verdict list * bool
(** [compare_runs rounds] judges [(parent, change)] pairs recorded on one
    runner. One verdict per kernel a parent measures, in first-seen
    order, then one per kernel only the change measures. A parent
    kernel passes when every change round whose parent measured it
    measured it too and its median ratio is at most [1. +. tolerance];
    a kernel new in the change always passes (it has nothing to regress
    against). The [bool] is the conjunction — [true] means the gate
    passes.
    @raise Invalid_argument on an empty list. *)

val pp_verdicts : Format.formatter -> verdict list -> unit
(** An aligned table: kernel, parent/change milliseconds, ratio, and
    [ok], [FAIL], [missing] or [new] per row. *)
