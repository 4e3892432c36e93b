(** Persistent directed graphs over an ordered vertex type.

    This module provides the graph algorithms that the rest of the system is
    built on: reachability, topological sorting, cycle detection, the
    condensation by Tarjan's strongly-connected components, and transitive
    reduction (the Hasse diagram of the induced partial order). All graphs are persistent;
    operations return new graphs. *)

module type VERTEX = sig
  type t

  val compare : t -> t -> int
end

module type S = sig
  type vertex
  type t

  module Vset : Set.S with type elt = vertex
  module Vmap : Map.S with type key = vertex

  val empty : t
  val add_vertex : vertex -> t -> t

  val add_edge : vertex -> vertex -> t -> t
  (** [add_edge u v g] adds the edge [u -> v], inserting both endpoints as
      vertices if needed. Self-loops are permitted (they make the graph
      cyclic). *)

  val remove_edge : vertex -> vertex -> t -> t

  val mem_vertex : vertex -> t -> bool
  val mem_edge : vertex -> vertex -> t -> bool
  val vertices : t -> vertex list
  val edges : t -> (vertex * vertex) list
  val n_vertices : t -> int
  val n_edges : t -> int
  val fold_vertices : (vertex -> 'a -> 'a) -> t -> 'a -> 'a
  val map_vertices : (vertex -> vertex) -> t -> t
  (** [map_vertices f g] renames every vertex by [f]; edges follow. If [f]
      identifies two vertices their edge sets are merged. *)

  val has_path : vertex -> vertex -> t -> bool
  (** [has_path u v g] holds iff there is a path of length >= 0 from [u] to
      [v]; both must be vertices of [g]. *)

  val is_acyclic : t -> bool

  val topological_sort : t -> vertex list option
  (** [None] when the graph has a cycle. Sources (no predecessors) first. *)

  val condensation : t -> vertex list list * (vertex * vertex) list
  (** The condensation DAG: its vertices are the SCCs of the input and its
      edges the inter-component edges (deduplicated, no self-loops). *)

  val transitive_reduction : t -> t
  (** For a DAG, the unique minimal subgraph with the same reachability
      relation (the Hasse diagram).
      @raise Invalid_argument when the graph has a cycle. *)
end

module Make (V : VERTEX) : S with type vertex = V.t
