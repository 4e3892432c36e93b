(** Hierarchies: Hasse diagrams of partial orders over term clusters.

    Following Definition 3 of the paper, a hierarchy for a poset [(S, <=)]
    is its Hasse diagram: a DAG whose vertices are the elements of [S] with
    a minimal edge set such that a path [u ~> v] exists iff [u <= v].

    Vertices are {!Node.t} term clusters. Edges point {e upward}: an edge
    [u -> v] means [u <= v] ([u] is below [v], e.g. ["article" part-of
    "articles"] or ["dog" isa "animal"]).

    In an ordinary or fused hierarchy each term belongs to at most one
    node; a similarity-enhanced hierarchy may place one term in several
    nodes, so term lookups return a list. *)

module G : Digraph.S with type vertex = Node.t

type t

val empty : t

val add_term : string -> t -> t
(** Adds an isolated singleton node for the term if no node contains it. *)

val add_leq : lower:string -> upper:string -> t -> t
(** Adds a covering edge between the nodes containing the two terms,
    creating singleton nodes for unknown terms. The caller is responsible
    for keeping the diagram acyclic and minimal; use {!normalize} to
    restore Hasse minimality and {!is_consistent} to check acyclicity. *)

val of_pairs : (string * string) list -> t
(** [of_pairs pairs] builds a hierarchy from [(lower, upper)] pairs and
    normalizes it.
    @raise Invalid_argument when the pairs induce a cycle. *)

val nodes : t -> Node.t list
val edges : t -> (Node.t * Node.t) list
val terms : t -> string list
val n_nodes : t -> int
val n_edges : t -> int
val mem_term : string -> t -> bool
val nodes_of : string -> t -> Node.t list
(** All nodes containing the term (at most one unless similarity-enhanced). *)

val leq : t -> string -> string -> bool
(** [leq h a b] holds iff some node containing [a] reaches some node
    containing [b] (so it is reflexive on known terms). Unknown terms are
    below/above nothing. *)

val node_leq : t -> Node.t -> Node.t -> bool

val below : string -> t -> string list
(** Every term [b] with [leq h b a]; includes the term's own cluster. *)

val merge_terms : string -> string -> t -> t
(** Declares two terms synonymous: their nodes fuse into one cluster that
    inherits both nodes' edges (self-edges dropped). The DBA-refinement
    primitive of the paper's Section 3. May create a cycle if the terms
    were strictly ordered; check with {!is_consistent}. Unknown terms get
    singleton nodes first. *)

val to_dot : ?name:string -> t -> string
(** Graphviz source: one box per node (cluster members joined by
    newlines), edges drawn upward. *)

val normalize : t -> t
(** Transitive reduction; restores Hasse minimality.
    @raise Invalid_argument on a cyclic diagram. *)

val is_consistent : t -> bool
(** Acyclicity. *)

val graph : t -> G.t
val of_graph : G.t -> t
val equal : t -> t -> bool
