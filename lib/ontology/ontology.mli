(** Ontologies (Definition 3): partial mappings from relation names to
    hierarchies.

    [Σ] is the set of relation names; the distinguished relations [isa]
    and [part-of] are always defined (as possibly empty hierarchies). *)

module Hierarchy = Toss_hierarchy.Hierarchy

type relation = string

val isa : relation
(** ["isa"] *)

val part_of : relation
(** ["part-of"] *)

type t

val empty : t
(** Maps [isa] and [part-of] to empty hierarchies. *)

val of_list : (relation * Hierarchy.t) list -> t
val add : relation -> Hierarchy.t -> t -> t
(** Replaces any previous hierarchy for the relation. *)

val get : relation -> t -> Hierarchy.t
(** The hierarchy for the relation, empty when undefined. *)

val relations : t -> relation list
