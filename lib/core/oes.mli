(** Ontology-extended semistructured instances (Section 5).

    An OES instance pairs a semistructured instance with its ontology (for
    now the isa and part-of hierarchies produced by the Ontology Maker)
    and the inferred attribute types. A set of OES instances is fused into
    a single {!Seo.t} context for querying. *)

module Ontology = Toss_ontology.Ontology
module Doc = Toss_xml.Tree.Doc
module Value_type = Toss_xml.Value_type

type t

val v : Doc.t -> Ontology.t -> t

val of_tree :
  ?lexicon:Toss_ontology.Lexicon.t ->
  ?content_tags:string list ->
  ?max_content_terms:int ->
  Toss_xml.Tree.t ->
  t

val doc : t -> Doc.t
val ontology : t -> Ontology.t

val tag_type : t -> Doc.node -> Value_type.t
(** Type of the node's tag attribute (always [String]). *)

val content_type : t -> Doc.node -> Value_type.t
(** Inferred type of the node's content. *)
