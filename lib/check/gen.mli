(** Seeded random generation of differential-test cases.

    A case bundles everything one query evaluation needs: a corpus (two
    for joins), an explicit ontology (edge lists, so the shrinker can
    drop edges), a similarity threshold, a pattern tree with a condition
    drawing on every predicate of the TOSS algebra ([~], [isa],
    [instance_of], [subtype_of], [above], [below], [part_of], typed
    comparisons, containment), and a selection list. Documents are
    drawn after the condition: most elements' children form a list
    sharing one tag the condition pins, whose leaves may hold the
    condition's constants, so a generated document often has several
    nodes of a tag that one predicate tells apart.

    Generation is deterministic: [case seed] always builds the same case,
    on every OCaml version ({!Rng} is self-contained), so CI can report a
    failing seed and a developer can replay it. Ontology edges always
    point from a lower to a strictly higher index in a fixed term order,
    so generated (and shrunk) hierarchies are acyclic by construction. *)

type op = Select | Join

type case = {
  seed : int;
  op : op;
  docs : Toss_xml.Tree.t list;
  right_docs : Toss_xml.Tree.t list;  (** empty for selections *)
  isa_edges : (string * string) list;
  part_edges : (string * string) list;
  eps : float;
  pattern : Toss_tax.Pattern.t;
  sl : int list;
}

val case : ?op:op -> int -> case
(** The case for one seed; [op] forces the operator kind (otherwise
    ~60% selections). About a third of join cases are similarity joins
    proper: their only cross atom is a [~] or [isa] over content, and
    both corpora draw from a shared pool of near-miss spellings
    straddling the generated ε values, so the planner's sim-pair
    lowering carries the case and the ε threshold decides which pairs
    match. *)

val seo_of : case -> Toss_core.Seo.t
(** The similarity-enhanced ontology the case's edges and ε describe
    (Levenshtein metric). *)

val to_ocaml : case -> string
(** A paste-into-test reproduction of the case, using the library's
    public constructors. *)

val pp : Format.formatter -> case -> unit
