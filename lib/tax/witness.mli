(** Witness trees (Section 2.1.1).

    The witness tree induced by an embedding contains the images of the
    pattern nodes, connected by closest-ancestor edges and ordered by
    document order. Selection additionally copies the full subtrees of the
    nodes matched by labels in the selection list SL. *)

val forest_of : Toss_xml.Tree.Doc.t -> Toss_xml.Tree.Doc.node list -> Toss_xml.Tree.t list
(** Builds the forest induced by a node set: each node's parent is its
    closest ancestor within the set; roots are the set's minimal nodes;
    sibling order is document order. Nodes without element children in the
    set are materialized with their full text content. *)

val of_binding :
  Toss_xml.Tree.Doc.t -> Embedding.binding -> sl:int list -> Toss_xml.Tree.t
(** The witness tree of one embedding; images of labels in [sl] contribute
    their entire subtrees. *)

val canonical : Toss_xml.Tree.t list -> Toss_xml.Tree.t list
(** Sorted by {!Toss_xml.Tree.compare}: the multiset normal form in which
    result lists compare, and in which the sharded router merges its
    shards' answers. *)
