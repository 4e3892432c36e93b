(** Pattern trees (Definition 2).

    A pattern tree is a node- and edge-labelled tree: every node carries a
    distinct integer label, every edge is parent-child ([Pc]) or
    ancestor-descendant ([Ad]), and a selection condition [F] applies to
    the whole pattern. *)

type edge_kind = Pc | Ad

type node = { label : int; children : (edge_kind * node) list }

type t = { root : node; condition : Condition.t }

val node : int -> (edge_kind * node) list -> node
val leaf : int -> node
val pc : node -> edge_kind * node
val ad : node -> edge_kind * node

val v : node -> Condition.t -> t
(** @raise Invalid_argument when node labels are not distinct. *)

val labels : t -> int list
(** All node labels, in preorder. *)
