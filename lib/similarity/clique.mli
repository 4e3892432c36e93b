(** Maximal-clique enumeration (Bron–Kerbosch with pivoting).

    The SEA algorithm's similarity-enhanced nodes are exactly the maximal
    pairwise-similar clusters of hierarchy nodes, i.e. the maximal cliques
    of the ε-similarity graph (Definition 8, conditions 2–4). *)

val maximal_cliques : n:int -> adjacent:(int -> int -> bool) -> int list list
(** [maximal_cliques ~n ~adjacent] enumerates the maximal cliques of the
    undirected graph on vertices [0 .. n-1]. [adjacent] must be symmetric
    and irreflexive; it is queried O(n^2) times up front to build adjacency
    sets. Isolated vertices are returned as singleton cliques. Each clique
    is sorted ascending; the clique list order is unspecified. *)
