(** The naive reference oracle: TOSS/TAX semantics evaluated directly
    from the embedding definitions, sharing no code path with the
    executor — no rewriting, no store, no index, no planner. Brute-force
    (exponential in pattern size), for test corpora only. *)

val select :
  eval:(Toss_tax.Condition.env -> Toss_tax.Condition.t -> bool) ->
  pattern:Toss_tax.Pattern.t ->
  sl:int list ->
  Toss_xml.Tree.Doc.t list ->
  Toss_xml.Tree.t list * int
(** Witness trees of [σ_{P,SL}] over the documents (set semantics per
    document, document order), plus the total number of
    condition-satisfying embeddings — which must equal the executor's
    [n_embeddings] funnel stat. *)

val join :
  eval:(Toss_tax.Condition.env -> Toss_tax.Condition.t -> bool) ->
  pattern:Toss_tax.Pattern.t ->
  sl:int list ->
  Toss_xml.Tree.Doc.t list ->
  Toss_xml.Tree.Doc.t list ->
  Toss_xml.Tree.t list
(** Condition join under the executor's documented contract: the root's
    two children match in the left and right corpora (a pc edge from the
    root pins that side to its document root), conjuncts mentioning the
    product root hold by construction, and results are globally
    deduplicated product trees. *)

(** {1 The reference SEO build}

    The precomputation pipeline of {!Toss_core.Seo.of_documents} as it
    was first written, kept as the reference the engine's build is
    checked against. It emits one synonym constraint per pair of term
    occurrences in different sources and fuses over a graph with one
    vertex per (source, hierarchy node) pair, so it is quadratic in the
    number of term occurrences. *)

val auto_constraints :
  ?lexicon:Toss_ontology.Lexicon.t ->
  Toss_ontology.Ontology.t list ->
  (Toss_ontology.Ontology.relation * Toss_ontology.Interop.t list) list
(** For each relation, [Eq (t1, i) (t2, j)] for every [i < j] such that
    source [i] holds [t1], source [j] holds [t2], and the two are
    distinct spellings of one lexicon synset. *)

type fusion = {
  fused : Toss_hierarchy.Hierarchy.t;
  psi : source:int -> Toss_hierarchy.Node.t -> Toss_hierarchy.Node.t option;
      (** as {!Toss_ontology.Fusion.psi} *)
}

val fuse :
  ?auto_equate:bool ->
  Toss_hierarchy.Hierarchy.t list ->
  Toss_ontology.Interop.t list ->
  (fusion, Toss_ontology.Fusion.error) result
(** Canonical fusion under the contract of {!Toss_ontology.Fusion.fuse}:
    the same errors, and [Invalid_argument] where it raises one. *)

val fuse_ontologies :
  Toss_ontology.Ontology.t list ->
  (Toss_ontology.Ontology.relation * Toss_ontology.Interop.t list) list ->
  (Toss_ontology.Ontology.t, Toss_ontology.Ontology.relation * Toss_ontology.Fusion.error)
  result
(** {!fuse} relation by relation, as {!Toss_ontology.Fusion.fuse_ontologies}
    with [auto_equate] on. *)

val seo_of_documents :
  ?metric:Toss_similarity.Metric.t ->
  ?eps:float ->
  ?lexicon:Toss_ontology.Lexicon.t ->
  Toss_xml.Tree.Doc.t list ->
  (Toss_core.Seo.t, string) result
(** {!Toss_core.Seo.of_documents} over {!auto_constraints} and
    {!fuse_ontologies}; SEA is the engine's own ({!Toss_core.Seo.create}). *)
