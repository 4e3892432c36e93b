module Hierarchy = Toss_hierarchy.Hierarchy
module Doc = Toss_xml.Tree.Doc
module Sset = Set.Make (String)
module Smap = Map.Make (String)

(* Adds [lower <= upper] unless it is a self-loop or would create a cycle
   (recursive element nesting, or a content value spelled like a tag). *)
let add_leq_acyclic ~lower ~upper h =
  if lower = upper then h
  else if Hierarchy.leq h upper lower then h
  else Hierarchy.add_leq ~lower ~upper h

let leaf_tags doc =
  List.fold_left
    (fun acc n -> if Doc.children doc n = [] then Sset.add (Doc.tag doc n) acc else acc)
    Sset.empty (Doc.nodes doc)

let contents_by_tag doc ~tags ~cap =
  List.map
    (fun tag ->
      let values =
        List.fold_left
          (fun acc n ->
            if Doc.tag doc n = tag && Doc.children doc n = [] then
              let c = Doc.content doc n in
              if c = "" then acc else Sset.add c acc
            else acc)
          Sset.empty (Doc.nodes doc)
      in
      let values = Sset.elements values in
      let values =
        match cap with
        | None -> values
        | Some k -> List.filteri (fun i _ -> i < k) values
      in
      (tag, values))
    tags

let make ?(lexicon = Lexicon.seeded) ?content_tags ?max_content_terms doc =
  let tags = Doc.tags doc in
  let content_tags =
    match content_tags with Some ts -> ts | None -> Sset.elements (leaf_tags doc)
  in
  let by_tag = contents_by_tag doc ~tags:content_tags ~cap:max_content_terms in
  let content_values = List.concat_map snd by_tag in
  let all_terms = tags @ content_values in
  (* isa: the lexicon's hypernymy over the document's terms, plus each
     content value below its tag (values of a type are types, Section 5). *)
  let isa_h = Lexicon.isa_hierarchy ~restrict_to:all_terms lexicon in
  let isa_h =
    List.fold_left
      (fun h (tag, values) ->
        List.fold_left (fun h v -> add_leq_acyclic ~lower:v ~upper:tag h) h values)
      isa_h by_tag
  in
  (* part-of: element nesting plus the lexicon's holonymy. *)
  let part_h = Lexicon.part_hierarchy ~restrict_to:all_terms lexicon in
  let part_h =
    List.fold_left
      (fun h n ->
        match Doc.parent doc n with
        | None -> h
        | Some p -> add_leq_acyclic ~lower:(Doc.tag doc n) ~upper:(Doc.tag doc p) h)
      part_h (Doc.nodes doc)
  in
  Ontology.empty
  |> Ontology.add Ontology.isa (Hierarchy.normalize isa_h)
  |> Ontology.add Ontology.part_of (Hierarchy.normalize part_h)

let make_all ?lexicon ?content_tags ?max_content_terms docs =
  List.map (make ?lexicon ?content_tags ?max_content_terms) docs

(* Some source in [s1] and a different one in [s2], if there are two. *)
let cross s1 s2 =
  match s1 with
  | [] -> None
  | i :: _ -> (
      match List.find_opt (( <> ) i) s2 with
      | Some j -> Some (i, j)
      | None -> Option.map (fun i' -> (i', i)) (List.find_opt (( <> ) i) s1))

let auto_constraints ?(lexicon = Lexicon.seeded) ontologies =
  let relations =
    List.sort_uniq String.compare (List.concat_map Ontology.relations ontologies)
  in
  List.map
    (fun rel ->
      (* Each spelling's sources, in ascending order. *)
      let sources =
        List.concat
          (List.mapi
             (fun i o -> List.map (fun t -> (t, i)) (Hierarchy.terms (Ontology.get rel o)))
             ontologies)
        |> List.fold_left (fun m (t, i) -> Smap.add_to_list t i m) Smap.empty
        |> Smap.map List.rev
      in
      (* One equality per pair of distinct synonymous spellings held by two
         different sources. The fusion's [auto_equate] ties every
         occurrence of a spelling together, so one edge per pair merges
         the same components as one per pair of occurrences. *)
      let constraints =
        Smap.fold
          (fun t1 s1 acc ->
            List.fold_left
              (fun acc t2 ->
                if String.compare t1 t2 >= 0 then acc
                else
                  match Option.bind (Smap.find_opt t2 sources) (cross s1) with
                  | Some (i, j) -> Interop.eq (t1, i) (t2, j) :: acc
                  | None -> acc)
              acc (Lexicon.synonyms lexicon t1))
          sources []
      in
      (rel, List.rev constraints))
    relations
