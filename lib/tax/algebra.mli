(** The TAX algebra (Section 2.1.2): selection, projection, product, join
    and the set operations, over in-memory collections of trees.

    Every operator takes an optional condition evaluator so that the TOSS
    engine can reuse this machinery with ontology-aware satisfaction; the
    default is the baseline {!Condition.eval_tax}. *)

type collection = Toss_xml.Tree.t list
(** A semistructured database: a finite set of rooted ordered trees. *)

type evaluator = Condition.env -> Condition.t -> bool

val select :
  ?eval:evaluator -> pattern:Pattern.t -> sl:int list -> collection -> collection
(** [σ_{P,SL}]: one witness tree per embedding (duplicates collapsed), with
    the full subtrees of SL-matched nodes included (Example 3). *)

val project :
  ?eval:evaluator -> pattern:Pattern.t -> pl:int list -> collection -> collection
(** [π_{P,PL}]: keeps exactly the nodes matched by PL labels under some
    embedding, preserving their hierarchical relationships; each input
    tree contributes the forest of its retained nodes (Example 5). *)

val product : collection -> collection -> collection
(** [×]: every pair of trees under a fresh [tax_prod_root] (Section 2.1.2). *)

val prod_root_tag : string
(** ["tax_prod_root"] *)

val join :
  ?eval:evaluator ->
  pattern:Pattern.t ->
  sl:int list ->
  collection ->
  collection ->
  collection
(** Condition join: product followed by selection (Example 6). *)

val union : collection -> collection -> collection
(** Set union modulo tree equality (ordered isomorphism). *)

val intersect : collection -> collection -> collection
val difference : collection -> collection -> collection
