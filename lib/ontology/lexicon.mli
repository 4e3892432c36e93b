(** A lexical knowledge base: the WordNet substitute.

    The paper's Ontology Maker consults WordNet for isa, part-of and
    synonymy relationships between the terms of a semistructured instance.
    WordNet is not redistributable here, so this module implements the
    same contract — synsets (synonym clusters), hypernymy (isa) and
    holonymy (part-of) between synsets — over (a) a seeded vocabulary for
    the bibliographic/computer-science/organizations domain that the
    DBLP/SIGMOD experiments need, and (b) synthetically generated
    vocabularies of arbitrary size for the scalability experiments (the
    paper sweeps ontologies of about 1000–1700 terms). *)

module Hierarchy = Toss_hierarchy.Hierarchy

type t

val empty : t

val add_synset : string list -> t -> t
(** Declares the terms synonymous. If any of them already belongs to a
    synset, all involved synsets are merged. *)

val add_isa : sub:string -> super:string -> t -> t
(** [sub]'s synset isa [super]'s synset; unknown terms get fresh synsets. *)

val synonyms : t -> string -> string list
(** The term's synset members (itself included); just the term itself when
    unknown. *)

val isa_hierarchy : ?restrict_to:string list -> t -> Hierarchy.t
(** The isa relation as a hierarchy whose nodes are synsets. With
    [restrict_to], only the synsets of the given terms and their hypernym
    ancestors are kept (what the Ontology Maker extracts for one
    document). *)

val part_hierarchy : ?restrict_to:string list -> t -> Hierarchy.t

val seeded : t
(** The built-in bibliographic / computer-science / organizations
    vocabulary (several hundred terms), including the paper's motivating
    entries: US government agencies (part-of), venue categories (isa) and
    publication-type synonyms. *)

val synthetic : seed:int -> n_terms:int -> t
(** A deterministic random vocabulary with an isa forest, synonym
    clusters, and near-duplicate spellings (so similarity enhancement has
    realistic work to do). Used by the ontology-size scalability sweeps. *)
