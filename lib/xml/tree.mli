(** Ordered labelled trees: the semistructured-instance model (Definition 1).

    Two representations are provided. {!t} is a plain constructor tree,
    convenient to build, transform and print — the algebra operators
    produce these. {!Doc} is a frozen, arena-indexed form of a tree that
    supports the constant-time structural tests (parent/child,
    ancestor/descendant via preorder–postorder intervals, document order)
    that pattern-tree embedding needs. *)

type t =
  | Element of { tag : string; attrs : (string * string) list; children : t list }
  | Text of string

val element : ?attrs:(string * string) list -> string -> t list -> t
val text : string -> t
val leaf : ?attrs:(string * string) list -> string -> string -> t
(** [leaf tag s] is [element tag [text s]]. *)

val string_value : t -> string
(** Concatenation of all descendant text, in document order (the XPath
    string-value). *)

val equal : t -> t -> bool
(** Structural equality: same tags, attributes, and ordered children —
    the tree-identity notion TAX's set operations use. *)

val compare : t -> t -> int
val fold : ('a -> t -> 'a) -> 'a -> t -> 'a
(** Preorder fold over all subtrees. *)

(** Frozen, indexed documents. *)
module Doc : sig
  type tree = t
  type t
  type node = int
  (** Node identifiers are the preorder ranks [0 .. size-1]; the root is
      [0]. Identifiers are only meaningful w.r.t. their own document. *)

  val of_tree : tree -> t
  (** @raise Invalid_argument when the tree is a bare text node. *)

  val root : t -> node
  val size : t -> int
  val nodes : t -> node list
  (** All element nodes, in document (preorder) order. *)

  val tag : t -> node -> string
  val attrs : t -> node -> (string * string) list
  val content : t -> node -> string
  (** String-value of the node's subtree. *)

  val children : t -> node -> node list
  (** Element children, in order. *)

  val parent : t -> node -> node option
  val is_child : t -> parent:node -> child:node -> bool
  val is_descendant : t -> anc:node -> desc:node -> bool
  (** Strict: a node is not its own descendant. O(1). *)

  val descendants : t -> node -> node list
  (** Strict descendants, in document order. *)

  val by_tag : t -> string -> node list
  (** All element nodes with the given tag, in document order. *)

  val tags : t -> string list
  (** Distinct tags, sorted. *)

  val subtree : t -> node -> tree
  (** Rematerializes the subtree rooted at the node. *)

  val to_tree : t -> tree
end
