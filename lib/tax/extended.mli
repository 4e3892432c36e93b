(** The remaining TAX operators: grouping, aggregation, renaming and
    reordering.

    The TAX paper (Jagadish et al., the paper's reference [8]) defines
    these beyond the core selection/projection/product/set operators; TOSS
    inherits them unchanged, so they are implemented here once and both
    semantics reuse them through the [eval] parameter. *)

type agg = Count | Sum | Avg | Min | Max

val group_by :
  ?eval:Algebra.evaluator ->
  pattern:Pattern.t ->
  by:Condition.term list ->
  Algebra.collection ->
  Algebra.collection
(** Partitions the collection by the values of the grouping basis [by]
    (terms over the pattern's labels, evaluated under each input tree's
    first embedding; trees with no embedding group under the empty key).
    Each output tree is

    {v
    <tax_group_root>
      <group_key><key>v1</key> ... </group_key>
      <tax_group_subroot> ...member trees... </tax_group_subroot>
    </tax_group_root>
    v}

    Groups are ordered by key; members keep collection order. *)

val aggregate :
  ?eval:Algebra.evaluator ->
  pattern:Pattern.t ->
  agg:agg ->
  over:Condition.term ->
  Algebra.collection ->
  (Toss_xml.Tree.t * float) list
(** For each input tree, the aggregate of the term's values over all
    embeddings ([Count] counts embeddings; the numeric aggregates skip
    non-numeric values; [Sum]/[Avg] of no values is 0, [Min]/[Max] of no
    values is [nan]). *)

val aggregate_trees :
  ?eval:Algebra.evaluator ->
  pattern:Pattern.t ->
  agg:agg ->
  over:Condition.term ->
  ?result_tag:string ->
  Algebra.collection ->
  Algebra.collection
(** The XML form: each input tree becomes
    [<result_tag>value</result_tag>] appended as the last child of (a copy
    of) the tree's root. [result_tag] defaults to the lowercase aggregate
    name, e.g. ["count"]. *)

val rename :
  ?eval:Algebra.evaluator ->
  pattern:Pattern.t ->
  label:int ->
  to_:string ->
  Algebra.collection ->
  Algebra.collection
(** Renames the tag of every node matched by the label under some
    embedding; all other nodes are untouched. *)

val sort_children :
  ?eval:Algebra.evaluator ->
  pattern:Pattern.t ->
  label:int ->
  key:[ `Tag | `Content ] ->
  Algebra.collection ->
  Algebra.collection
(** Reorders the element children of every node matched by the label, by
    the chosen key (stable; text children keep their positions relative to
    the front). *)

val delete_matched :
  ?eval:Algebra.evaluator ->
  pattern:Pattern.t ->
  label:int ->
  Algebra.collection ->
  Algebra.collection
(** The TAX deletion operator: removes every node matched by the label
    (with its whole subtree). A tree whose root matches is dropped from
    the collection. *)

val insert_child :
  ?eval:Algebra.evaluator ->
  pattern:Pattern.t ->
  label:int ->
  ?position:[ `First | `Last ] ->
  Toss_xml.Tree.t ->
  Algebra.collection ->
  Algebra.collection
(** The TAX insertion operator: adds a copy of the given tree as the
    first or last (default) child of every node matched by the label. *)
