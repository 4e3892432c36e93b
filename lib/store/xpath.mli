(** XPath subset: abstract syntax and evaluation over frozen documents.

    The paper's prototype executes TAX/TOSS pattern trees by rewriting
    them into XPath queries submitted to the Xindice database (Section 6).
    This module is the corresponding query language for our store. The
    subset covers location paths with child ([/]) and descendant-or-self
    ([//]) axes, name and wildcard node tests, and predicates on content,
    child content, attributes and position, combined with [and]/[or]/
    [not] — enough to express every rewritten pattern tree. Top-level
    queries are unions of paths. *)

type axis = Child | Descendant

type name_test = Tag of string | Any

type predicate =
  | Content_eq of string  (** [[.='v']] *)
  | Content_contains of string  (** [[contains(.,'v')]] *)
  | Child_eq of string * string  (** [[t='v']]: some child [t] has content [v] *)
  | Child_contains of string * string  (** [[contains(t,'v')]] *)
  | Has_child of string  (** [[t]] *)
  | Attr_eq of string * string  (** [[@a='v']] *)
  | Position of int  (** [[n]], 1-based among the step's matches per parent *)
  | And of predicate * predicate
  | Or of predicate * predicate
  | Not of predicate

type step = { axis : axis; test : name_test; predicates : predicate list }

type path = step list
(** Absolute location path; the first step applies to the document root
    (so [/articles] selects the root when tagged [articles], and
    [//author] selects all [author] elements). *)

type t = path list
(** Union query ([p1 | p2 | ...]). Must be non-empty to select anything. *)

val path : step list -> t
(** A single-path query. *)

val step : ?axis:axis -> ?predicates:predicate list -> string -> step
(** A step testing for the given tag (default axis {!Child}). *)

val any : ?axis:axis -> ?predicates:predicate list -> unit -> step
(** A wildcard ([*]) step (default axis {!Child}). *)

val eval : Toss_xml.Tree.Doc.t -> t -> Toss_xml.Tree.Doc.node list
(** All matching nodes, deduplicated, in document order. *)

val matches : Toss_xml.Tree.Doc.t -> Toss_xml.Tree.Doc.node -> predicate -> bool
(** Predicate satisfaction at a node ({!Position} is context-dependent and
    always true here; it is interpreted during {!eval}). *)

val to_string : t -> string
(** Concrete syntax; parses back with {!Xpath_parser.parse}. *)
