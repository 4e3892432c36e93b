(** Per-document value indexes.

    Xindice lets the administrator declare value indexes on element
    content; our store builds the equivalent structure on first use: an
    exact-match index from [(tag, content)] to nodes, restricted to
    {e leaf} elements (elements without element children), which is where
    rewritten TAX and TOSS conditions test content. The cost-based
    planner reads its per-term counts. *)

type t

val build : Toss_xml.Tree.Doc.t -> t

val eq_count : t -> tag:string -> value:string -> int
(** Number of leaf elements with the given tag whose content equals
    [value]. *)
