(** The Ontology Maker (TOSS architecture component 1, Section 3).

    Automatically associates an ontology with a semistructured instance:

    - the {e part-of} hierarchy is read off the element nesting structure
      (a tag that occurs as a child of another is part of it), enriched
      with the lexicon's holonymy entries for terms that occur in the
      document;
    - the {e isa} hierarchy links the document's terms — tags and the
      content values of the selected tags — into the lexicon's hypernymy
      graph; content values are additionally placed below their tag (each
      value of a type is itself a type, Section 5).

    The result can then be refined by a database administrator (for
    instance with {!Hierarchy.merge_terms}), fused across instances with
    {!Fusion}, and
    similarity-enhanced with [Toss_similarity.Sea]. *)

module Hierarchy = Toss_hierarchy.Hierarchy

val make :
  ?lexicon:Lexicon.t ->
  ?content_tags:string list ->
  ?max_content_terms:int ->
  Toss_xml.Tree.Doc.t ->
  Ontology.t
(** [lexicon] defaults to {!Lexicon.seeded}. [content_tags] selects the
    tags whose content values become ontology terms (default: every leaf
    tag). [max_content_terms] caps the number of distinct content values
    added per tag (default unlimited). *)

val make_all :
  ?lexicon:Lexicon.t ->
  ?content_tags:string list ->
  ?max_content_terms:int ->
  Toss_xml.Tree.Doc.t list ->
  Ontology.t list

val auto_constraints :
  ?lexicon:Lexicon.t -> Ontology.t list -> (Ontology.relation * Interop.t list) list
(** Interoperation constraints between the ontologies of different
    sources, derived from the lexicon: terms that are synonyms (same
    synset) are equated across sources, e.g. [booktitle:0 = conference:1]
    when the lexicon declares them synonymous.

    Per relation, one [Eq] is emitted per pair of distinct synonymous
    spellings that occur in two different sources, not one per pair of
    occurrences: the output grows with the vocabulary, not with the
    number of sources. This relies on the fusion's [auto_equate] (the
    default of {!Fusion.fuse}), which ties every occurrence of a spelling
    together, so the fused components are those of the all-pairs
    constraint set. Identically-spelled terms are left to [auto_equate]
    too. A synset whose spellings all occur in one source yields no
    constraint and stays unmerged. *)
