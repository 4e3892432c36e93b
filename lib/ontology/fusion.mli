(** Canonical fusion of hierarchies (Definitions 5–6).

    The hierarchy graph of the inputs has one vertex per (source,
    hierarchy-node) pair, the within-hierarchy Hasse edges, and one edge
    per [Leq] interoperation constraint. Equality constraints induce
    two-cycles, so condensing the graph's strongly-connected components
    merges equated terms into single nodes; the transitive reduction of
    the condensation is the canonical hierarchy of Calvanese et al. (the
    paper's references [2, 3]). The witness maps each input node to the
    fused node absorbing it, satisfying both integration axioms of
    Definition 5.

    When [auto_equate] is set (the default), terms spelled identically in
    different sources are equated implicitly — the paper's example relies
    on this for [title], [author] and [year]; explicit [Neq] constraints
    are checked against the result and fail the fusion when violated.

    Implementation: vertices equated by [auto_equate] always share a
    strongly-connected component, so before the SCC pass a union-find
    contracts each spelling class — the vertices holding a spelling,
    joined through nodes that hold several terms — into one vertex. The
    pass then runs over one vertex per class rather than one per
    (source, node) pair; the fused hierarchy and ψ are those of the
    uncontracted graph. *)

module Node = Toss_hierarchy.Node
module Hierarchy = Toss_hierarchy.Hierarchy

type witness
(** The injective mappings ψ₁ … ψₙ of Definition 5. *)

type error =
  | Neq_violated of Interop.t
  (** A [Neq] constraint's two terms ended up in the same fused node. *)
  | Unknown_source of Interop.t
  (** A constraint references a source index out of range. *)

type result = { fused : Hierarchy.t; witness : witness }

val fuse :
  ?auto_equate:bool -> Hierarchy.t list -> Interop.t list -> (result, error) Stdlib.result

val psi : witness -> source:int -> Node.t -> Node.t option
(** The fused node absorbing an input node; [None] when the node is not in
    that source. *)

val psi_term : witness -> source:int -> string -> Node.t option
(** Convenience: the fused node containing the source's term. *)

val fuse_ontologies :
  ?auto_equate:bool ->
  Ontology.t list ->
  (Ontology.relation * Interop.t list) list ->
  (Ontology.t, Ontology.relation * error) Stdlib.result
(** Fuses relation-by-relation: the k-th output hierarchy is the fusion of
    the inputs' k-th hierarchies under that relation's constraints. *)

val check_integration :
  Hierarchy.t list -> Interop.t list -> result -> (unit, string list) Stdlib.result
(** Verifies the two axioms of Definition 5 against a fusion result:
    (1) ordering of every input hierarchy is preserved, (2) every [Leq]
    constraint is honoured. Used by the test suite. *)

val pp_error : Format.formatter -> error -> unit
