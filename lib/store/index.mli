(** Per-document value indexes.

    Xindice lets the administrator declare value indexes on element
    content; our store builds the equivalent structure at insertion time:
    an exact-match index from [(tag, content)] to nodes, restricted to
    {e leaf} elements (elements without element children), which is where
    rewritten TAX and TOSS conditions test content. *)

type t

val build : Toss_xml.Tree.Doc.t -> t

val eq_lookup : t -> tag:string -> value:string -> Toss_xml.Tree.Doc.node list
(** Leaf elements with the given tag whose content equals [value]. *)

val n_entries : t -> int

(** {1 Statistics}

    Per-term statistics for the cost-based planner. Unlike the lookup
    above these do not touch the lookup/hit metrics: estimating a plan
    must not perturb the counters that describe executing it. *)

val eq_count : t -> tag:string -> value:string -> int
(** Number of leaf elements with the given tag whose content equals
    [value] — the exact cardinality an {!eq_lookup} would return. *)
