(** The differential-testing run loop behind [toss check].

    Draws [runs] cases from a seeded master stream, checks each against
    the oracle under every engine configuration, and on the first
    discrepancy shrinks it to a locally-minimal repro. Supports fault
    injection (see {!Toss_core.Plan.fault}) so the harness itself can be
    tested: an injected planner fault must be caught and shrunk. *)

type outcome =
  | Pass of { runs : int }
  | Fail of {
      run : int;  (** 1-based index of the failing run *)
      case_seed : int;
      failure : Diff.failure;  (** already shrunk *)
      steps : int;  (** candidate cases tried while shrinking *)
    }

val fault_of_string : string -> Toss_core.Plan.fault option
(** Recognizes {!fault_names}. *)

val fault_names : string list

val run :
  ?fault:Toss_core.Plan.fault ->
  ?op:Gen.op ->
  seed:int ->
  runs:int ->
  unit ->
  outcome
(** Deterministic for a given (seed, runs, op, fault). The injected
    fault is active only for the duration of the call; [Plan.fault] is
    restored on exit, including on exceptions. *)

val repro : Diff.failure -> string
(** The paste-into-test reproduction for a failure: a comment naming the
    mode/configuration and discrepancy, then {!Gen.to_ocaml}. *)

val report : Format.formatter -> outcome -> unit
(** Human-readable summary: a ["PASS"] line, or a ["DISCREPANCY"] block
    with oracle vs executor results, the shrunk case, and the repro. *)
