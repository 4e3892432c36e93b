(** Selection conditions over pattern-tree nodes (Sections 2.1 and 5.1.1).

    Terms reference a pattern node's tag ([Tag i] for [#i.tag]) or content
    ([Content i] for [#i.content]), or are string constants. Atomic
    conditions are comparisons, substring containment, and the ontology
    operators of the TOSS algebra ([~], [isa], [part_of], [instance_of],
    [subtype_of], [above], [below]). One condition AST serves both
    engines: the TAX evaluator ({!eval_tax}) interprets the ontology
    operators the way the paper's baseline does (exact match for [~],
    substring containment for the rest), while the TOSS evaluator
    (in [Toss_core]) consults the similarity-enhanced ontology. *)

type term =
  | Tag of int  (** [#i.tag] *)
  | Content of int  (** [#i.content] *)
  | Str of string  (** a constant *)

type cmp = Eq | Neq | Le | Ge | Lt | Gt

type t =
  | True
  | Cmp of term * cmp * term
  | Contains of term * string  (** substring test *)
  | Sim of term * term  (** [~], similarTo *)
  | Isa of term * term
  | Part_of of term * term
  | Instance_of of term * term
  | Subtype_of of term * term
  | Below of term * term
  | Above of term * term
  | And of t * t
  | Or of t * t
  | Not of t

val conj : t list -> t
val disj : t list -> t
(** [disj [] = Not True]. *)

val tag_eq : int -> string -> t
(** [#i.tag = s] *)

val content_sim : int -> string -> t
val content_isa : int -> string -> t

type env = int -> (Toss_xml.Tree.Doc.t * Toss_xml.Tree.Doc.node) option
(** A binding of pattern labels to data nodes. *)

val term_value : env -> term -> string option
(** The string value of a term under a binding ([None] when the label is
    unbound). *)

val compare_values : cmp -> string -> string -> bool
(** Numeric comparison when both strings parse as numbers, lexicographic
    otherwise. *)

val eval_tax : env -> t -> bool
(** Baseline TAX satisfaction: [Sim] is exact equality; [Isa], [Part_of],
    [Instance_of], [Subtype_of], [Below] and [Above] degrade to substring
    containment of the right value in the left (how the paper ran TAX on
    queries containing ontology operators). Unbound terms make atoms
    false. *)

val labels_used : t -> int list
val atoms : t -> t list
(** The atomic subconditions, left to right. *)

val top_conjuncts : t -> t list
(** The maximal conjuncts of the condition, left to right: [And] spines
    are flattened, everything else (atoms, [Or], [Not], [True]) is a
    single conjunct. The planner splits join conditions along these, and
    the differential-testing shrinker drops them one at a time. *)

val local_atoms : t -> int -> t list
(** The top-level conjuncts that mention only the given label (and
    constants) — usable as node-local prefilters during embedding. *)

val pp : Format.formatter -> t -> unit
