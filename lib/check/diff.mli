(** One case, every engine configuration, against the oracle.

    A case passes when, for both semantics (TAX and TOSS) and both
    engine configurations (the compiled matcher and the interpreted
    rewrite→XPath→reassemble pipeline, both planned — which covers the
    hash, sim-pair and nested-loop pairings the planner picks for
    joins), the executor's results equal the oracle's as canonicalized
    witness-tree multisets, and (for selections) the executor's
    [n_embeddings] funnel stat equals the oracle's count of
    condition-satisfying embeddings. Because the same cases run through
    both the arena matcher and the interpreted scan/prune/embed
    pipeline, the interpreter serves as a second, in-engine reference
    alongside the naive oracle. *)

type config = Compiled | Interpreted

val config_name : config -> string
(** ["compiled"] or ["interpreted"]. *)

type failure = {
  case : Gen.case;
  mode : Toss_core.Executor.mode;
  config : config;
  expected : Toss_xml.Tree.t list;  (** oracle results, canonicalized *)
  got : Toss_xml.Tree.t list;  (** executor results, canonicalized *)
  detail : string;
}

val mode_name : Toss_core.Executor.mode -> string

val canonical : Toss_xml.Tree.t list -> Toss_xml.Tree.t list
(** {!Toss_tax.Witness.canonical}: sorted by {!Toss_xml.Tree.compare} —
    the multiset normal form results are compared in. *)

val check_case : Gen.case -> failure option
(** [None] when every mode × configuration agrees with the oracle; the
    first discrepancy otherwise. *)
