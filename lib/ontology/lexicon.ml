module Hierarchy = Toss_hierarchy.Hierarchy
module Node = Toss_hierarchy.Node
module Smap = Map.Make (String)
module Imap = Map.Make (Int)
module Iset = Set.Make (Int)

type t = {
  synset_of : int Smap.t;
  members : string list Imap.t;
  isa_edges : Iset.t Imap.t;  (** synset -> hypernym synsets *)
  part_edges : Iset.t Imap.t;  (** synset -> holonym synsets *)
  next_id : int;
}

let empty =
  {
    synset_of = Smap.empty;
    members = Imap.empty;
    isa_edges = Imap.empty;
    part_edges = Imap.empty;
    next_id = 0;
  }

let fresh_synset term t =
  let id = t.next_id in
  ( id,
    {
      t with
      synset_of = Smap.add term id t.synset_of;
      members = Imap.add id [ term ] t.members;
      next_id = id + 1;
    } )

let synset_of term t =
  match Smap.find_opt term t.synset_of with
  | Some id -> (id, t)
  | None -> fresh_synset term t

let members_of id t = Option.value ~default:[] (Imap.find_opt id t.members)

(* Merge synset [src] into [dst], rewriting memberships and edges. *)
let merge_synsets dst src t =
  if dst = src then t
  else begin
    let moved = members_of src t in
    let synset_of =
      List.fold_left (fun m term -> Smap.add term dst m) t.synset_of moved
    in
    let members =
      Imap.add dst
        (List.sort_uniq String.compare (members_of dst t @ moved))
        (Imap.remove src t.members)
    in
    let rename = Iset.map (fun id -> if id = src then dst else id) in
    let rewrite edges =
      let out_dst = Option.value ~default:Iset.empty (Imap.find_opt dst edges) in
      let out_src = Option.value ~default:Iset.empty (Imap.find_opt src edges) in
      let edges = Imap.map rename (Imap.remove src edges) in
      (* An edge between the two synsets would become a self-loop. *)
      let merged = Iset.remove dst (rename (Iset.union out_dst out_src)) in
      if Iset.is_empty merged then Imap.remove dst edges else Imap.add dst merged edges
    in
    {
      t with
      synset_of;
      members;
      isa_edges = rewrite t.isa_edges;
      part_edges = rewrite t.part_edges;
    }
  end

let add_synset terms t =
  match terms with
  | [] -> t
  | first :: rest ->
      let id0, t = synset_of first t in
      List.fold_left
        (fun t term ->
          let id, t = synset_of term t in
          merge_synsets id0 id t)
        t rest

let add_edge field ~sub ~super t =
  let sid, t = synset_of sub t in
  let pid, t = synset_of super t in
  if sid = pid then (field t, t)
  else
    let edges = field t in
    let out = Option.value ~default:Iset.empty (Imap.find_opt sid edges) in
    (Imap.add sid (Iset.add pid out) edges, t)

let add_isa ~sub ~super t =
  let edges, t = add_edge (fun t -> t.isa_edges) ~sub ~super t in
  { t with isa_edges = edges }

let add_part ~part ~whole t =
  let edges, t = add_edge (fun t -> t.part_edges) ~sub:part ~super:whole t in
  { t with part_edges = edges }

let mem t term = Smap.mem term t.synset_of

let synonyms t term =
  match Smap.find_opt term t.synset_of with
  | None -> [ term ]
  | Some id -> members_of id t

let hierarchy_of field ?restrict_to t =
  let kept =
    match restrict_to with
    | None -> Imap.fold (fun id _ s -> Iset.add id s) t.members Iset.empty
    | Some terms ->
        (* Synsets of the terms plus all ancestors through this field. *)
        let seeds =
          List.filter_map (fun term -> Smap.find_opt term t.synset_of) terms
        in
        let rec walk seen frontier =
          match frontier with
          | [] -> seen
          | s :: rest ->
              if Iset.mem s seen then walk seen rest
              else
                let ups =
                  Iset.elements
                    (Option.value ~default:Iset.empty (Imap.find_opt s (field t)))
                in
                walk (Iset.add s seen) (ups @ rest)
        in
        walk Iset.empty seeds
  in
  let node_of id = Node.of_list (members_of id t) in
  let g =
    Iset.fold
      (fun id g ->
        let g = Hierarchy.G.add_vertex (node_of id) g in
        match Imap.find_opt id (field t) with
        | None -> g
        | Some supers ->
            Iset.fold
              (fun super g ->
                if Iset.mem super kept then Hierarchy.G.add_edge (node_of id) (node_of super) g
                else g)
              supers g)
      kept Hierarchy.G.empty
  in
  Hierarchy.normalize (Hierarchy.of_graph g)

let isa_hierarchy ?restrict_to t = hierarchy_of (fun t -> t.isa_edges) ?restrict_to t
let part_hierarchy ?restrict_to t = hierarchy_of (fun t -> t.part_edges) ?restrict_to t

(* ------------------------------------------------------------------ *)
(* Seeded domain vocabulary.                                           *)
(* ------------------------------------------------------------------ *)

let seeded =
  let syn = add_synset in
  let isa pairs t = List.fold_left (fun t (sub, super) -> add_isa ~sub ~super t) t pairs in
  let part pairs t =
    List.fold_left (fun t (p, w) -> add_part ~part:p ~whole:w t) t pairs
  in
  empty
  (* Publication forms. *)
  |> syn [ "inproceedings"; "conference paper" ]
  |> syn [ "article"; "journal article" ]
  |> syn [ "paper"; "publication" ]
  |> syn [ "proceedings"; "conference proceedings" ]
  |> syn [ "booktitle"; "conference"; "venue" ]
  |> isa
       [
         ("inproceedings", "paper");
         ("article", "paper");
         ("incollection", "paper");
         ("phdthesis", "thesis");
         ("mastersthesis", "thesis");
         ("thesis", "document");
         ("paper", "document");
         ("book", "document");
         ("proceedings", "document");
         ("techreport", "document");
         ("webpage", "document");
       ]
  (* Venues. *)
  |> syn [ "SIGMOD Conference"; "ACM SIGMOD International Conference on Management of Data" ]
  |> syn [ "VLDB"; "International Conference on Very Large Data Bases" ]
  |> syn [ "ICDE"; "International Conference on Data Engineering" ]
  |> syn [ "PODS"; "Symposium on Principles of Database Systems" ]
  |> syn [ "EDBT"; "International Conference on Extending Database Technology" ]
  |> syn [ "CIKM"; "Conference on Information and Knowledge Management" ]
  |> syn [ "KDD"; "Knowledge Discovery and Data Mining" ]
  |> syn [ "ICML"; "International Conference on Machine Learning" ]
  |> syn [ "NIPS"; "Neural Information Processing Systems" ]
  |> syn [ "SIGIR"; "Conference on Research and Development in Information Retrieval" ]
  |> syn [ "WWW"; "International World Wide Web Conference" ]
  |> syn [ "SODA"; "Symposium on Discrete Algorithms" ]
  |> syn [ "STOC"; "Symposium on Theory of Computing" ]
  |> syn [ "FOCS"; "Symposium on Foundations of Computer Science" ]
  |> isa
       [
         ("SIGMOD Conference", "database conference");
         ("VLDB", "database conference");
         ("ICDE", "database conference");
         ("PODS", "database conference");
         ("EDBT", "database conference");
         ("CIKM", "information systems conference");
         ("KDD", "data mining conference");
         ("ICML", "machine learning conference");
         ("NIPS", "machine learning conference");
         ("SIGIR", "information retrieval conference");
         ("WWW", "web conference");
         ("SODA", "theory conference");
         ("STOC", "theory conference");
         ("FOCS", "theory conference");
         ("database conference", "computer science conference");
         ("data mining conference", "computer science conference");
         ("machine learning conference", "computer science conference");
         ("information retrieval conference", "computer science conference");
         ("information systems conference", "computer science conference");
         ("web conference", "computer science conference");
         ("theory conference", "computer science conference");
         ("computer science conference", "conference");
         ("conference", "meeting");
         ("workshop", "meeting");
         ("symposium", "meeting");
       ]
  (* Research topics. *)
  |> syn [ "DBMS"; "database management system" ]
  |> syn [ "IR"; "information retrieval" ]
  |> syn [ "ML"; "machine learning" ]
  |> isa
       [
         ("relational database", "database");
         ("XML database", "database");
         ("object-oriented database", "database");
         ("deductive database", "database");
         ("distributed database", "database");
         ("database", "data management");
         ("query processing", "data management");
         ("query optimization", "query processing");
         ("indexing", "data management");
         ("transaction processing", "data management");
         ("data integration", "data management");
         ("data warehousing", "data management");
         ("data mining", "data management");
         ("data management", "computer science");
         ("information retrieval", "computer science");
         ("machine learning", "artificial intelligence");
         ("knowledge representation", "artificial intelligence");
         ("artificial intelligence", "computer science");
         ("algorithms", "computer science");
         ("computational complexity", "computer science");
         ("computer networks", "computer science");
         ("operating systems", "computer science");
         ("programming languages", "computer science");
         ("software engineering", "computer science");
         ("computer science", "science");
         ("semistructured data", "data management");
         ("XML", "semistructured data");
         ("ontology", "knowledge representation");
         ("similarity search", "information retrieval");
       ]
  (* Organizations: the paper's "US government" motivating example. *)
  |> syn [ "US government"; "United States government" ]
  |> syn [ "US Census Bureau"; "United States Census Bureau" ]
  |> part
       [
         ("US Census Bureau", "US Department of Commerce");
         ("US Department of Commerce", "US government");
         ("US Army", "US Department of Defense");
         ("US Navy", "US Department of Defense");
         ("US Air Force", "US Department of Defense");
         ("US Department of Defense", "US government");
         ("NIST", "US Department of Commerce");
         ("NASA", "US government");
         ("NSF", "US government");
         ("NIH", "US Department of Health");
         ("US Department of Health", "US government");
         ("Army Research Lab", "US Army");
       ]
  |> isa
       [
         ("US government", "government");
         ("government", "organization");
         ("university", "organization");
         ("company", "organization");
         ("web search company", "computer company");
         ("computer company", "company");
         ("database company", "computer company");
         ("Google", "web search company");
         ("Yahoo", "web search company");
         ("Microsoft", "computer company");
         ("IBM", "computer company");
         ("Oracle", "database company");
         ("Sybase", "database company");
         ("Informix", "database company");
         ("Bell Labs", "research lab");
         ("AT&T Labs", "research lab");
         ("research lab", "organization");
         ("Stanford University", "university");
         ("MIT", "university");
         ("University of Maryland", "university");
         ("University of Michigan", "university");
         ("University of Wisconsin", "university");
       ]
  (* Journals and publishers. *)
  |> syn [ "TODS"; "ACM Transactions on Database Systems" ]
  |> syn [ "TKDE"; "IEEE Transactions on Knowledge and Data Engineering" ]
  |> syn [ "VLDB Journal"; "The VLDB Journal" ]
  |> syn [ "CACM"; "Communications of the ACM" ]
  |> syn [ "JACM"; "Journal of the ACM" ]
  |> isa
       [
         ("TODS", "database journal");
         ("TKDE", "database journal");
         ("VLDB Journal", "database journal");
         ("Information Systems", "database journal");
         ("CACM", "computer science journal");
         ("JACM", "computer science journal");
         ("SIGMOD Record", "computer science journal");
         ("database journal", "computer science journal");
         ("computer science journal", "journal");
         ("journal", "periodical");
         ("magazine", "periodical");
         ("periodical", "document");
         ("ACM", "professional society");
         ("IEEE", "professional society");
         ("professional society", "organization");
         ("ACM Press", "publisher");
         ("IEEE Computer Society Press", "publisher");
         ("Springer", "publisher");
         ("Elsevier", "publisher");
         ("Morgan Kaufmann", "publisher");
         ("publisher", "company");
       ]
  (* Deeper topic taxonomy (matches the title generator's vocabulary). *)
  |> isa
       [
         ("B-tree", "index structure");
         ("R-tree", "index structure");
         ("hash index", "index structure");
         ("inverted index", "index structure");
         ("index structure", "indexing");
         ("view maintenance", "materialized views");
         ("materialized views", "query processing");
         ("join processing", "query processing");
         ("schema matching", "data integration");
         ("entity resolution", "data integration");
         ("record linkage", "entity resolution");
         ("duplicate detection", "entity resolution");
         ("clustering", "data mining");
         ("classification", "data mining");
         ("association rules", "data mining");
         ("similarity search", "information retrieval");
         ("nearest neighbor search", "similarity search");
         ("text search", "information retrieval");
         ("ranking", "information retrieval");
         ("caching", "query processing");
         ("replication", "distributed database");
         ("concurrency control", "transaction processing");
         ("recovery", "transaction processing");
         ("logging", "recovery");
         ("XPath", "XML");
         ("XQuery", "XML");
         ("XSLT", "XML");
         ("DTD", "XML");
         ("tree algebra", "semistructured data");
         ("TAX", "tree algebra");
         ("TOSS", "tree algebra");
         ("data streams", "data management");
         ("sensor data", "data streams");
         ("spatial data", "data management");
         ("temporal data", "data management");
         ("graph data", "data management");
         ("web data", "data management");
       ]
  (* More universities and labs (affiliation queries). *)
  |> isa
       [
         ("Carnegie Mellon University", "university");
         ("University of California Berkeley", "university");
         ("Cornell University", "university");
         ("Princeton University", "university");
         ("University of Washington", "university");
         ("University of Toronto", "university");
         ("ETH Zurich", "university");
         ("INRIA", "research lab");
         ("Microsoft Research", "research lab");
         ("IBM Almaden", "research lab");
         ("IBM Research", "research lab");
         ("Xerox PARC", "research lab");
       ]
  |> part
       [
         ("IBM Almaden", "IBM");
         ("Microsoft Research", "Microsoft");
         ("Bell Labs", "AT&T");
         ("computer science department", "university");
       ]
  (* Countries and regions, for affiliation/location reasoning. *)
  |> syn [ "USA"; "United States"; "United States of America" ]
  |> syn [ "UK"; "United Kingdom" ]
  |> isa
       [
         ("USA", "country");
         ("UK", "country");
         ("Germany", "country");
         ("France", "country");
         ("Italy", "country");
         ("Canada", "country");
         ("Japan", "country");
         ("China", "country");
         ("India", "country");
         ("country", "region");
       ]
  |> part
       [
         ("California", "USA");
         ("Maryland", "USA");
         ("Washington", "USA");
         ("San Diego", "California");
         ("San Francisco", "California");
         ("Seattle", "Washington");
         ("College Park", "Maryland");
       ]
  (* Structural/tag vocabulary shared by the two bibliographies. *)
  |> syn [ "author"; "writer" ]
  |> syn [ "year"; "confYear" ]
  |> syn [ "pages"; "page range" ]
  |> syn [ "affiliation"; "institution" ]
  |> isa
       [
         ("title", "metadata");
         ("author", "metadata");
         ("year", "metadata");
         ("pages", "metadata");
         ("volume", "metadata");
         ("number", "metadata");
         ("month", "metadata");
         ("location", "metadata");
         ("affiliation", "metadata");
         ("editor", "metadata");
         ("publisher", "metadata");
         ("isbn", "metadata");
         ("url", "metadata");
       ]

(* ------------------------------------------------------------------ *)
(* Synthetic vocabularies.                                             *)
(* ------------------------------------------------------------------ *)

let synthetic_adjectives =
  [| "amber"; "brisk"; "cobalt"; "dusty"; "ebony"; "feral"; "gilded"; "hollow";
     "ivory"; "jagged"; "keen"; "lucid"; "mellow"; "noble"; "opaque"; "pallid";
     "quaint"; "rustic"; "solemn"; "tepid"; "umber"; "vivid"; "wistful";
     "zealous"; "arcane"; "bleak"; "crimson"; "dormant"; "elder"; "frosty" |]

let synthetic_nouns =
  [| "anchor"; "beacon"; "cradle"; "delta"; "ember"; "fjord"; "grove"; "harbor";
     "inlet"; "jetty"; "knoll"; "lagoon"; "meadow"; "nexus"; "orchard"; "plateau";
     "quarry"; "ridge"; "summit"; "thicket"; "upland"; "valley"; "willow";
     "zenith"; "basin"; "canyon"; "dune"; "estuary"; "floe"; "glacier" |]

let synthetic ~seed ~n_terms =
  let rng = Random.State.make [| seed; n_terms |] in
  let lex = ref empty in
  let names = Array.make (max n_terms 1) "" in
  let count = ref 0 in
  (* Base names combine word pools so that unrelated concepts are far
     apart under edit distance: a dense similarity graph would make the
     maximal-clique step of SEA blow up, which real vocabularies do not. *)
  let base_name i =
    let na = Array.length synthetic_adjectives in
    let nn = Array.length synthetic_nouns in
    let combo = i mod (na * nn) in
    let generation = i / (na * nn) in
    let base =
      Printf.sprintf "%s %s" synthetic_adjectives.(combo mod na)
        synthetic_nouns.(combo / na mod nn)
    in
    if generation = 0 then base else Printf.sprintf "%s gen%d" base generation
  in
  let i = ref 0 in
  while !count < n_terms do
    let name =
      (* Every eighth term is a near-duplicate spelling of an earlier one,
         giving the SEA algorithm realistic merge candidates. *)
      if !i > 0 && !i mod 8 = 0 then begin
        let target = names.(Random.State.int rng !count) in
        match Random.State.int rng 3 with
        | 0 -> target ^ "s"
        | 1 -> String.capitalize_ascii target
        | _ -> target ^ "x"
      end
      else base_name !i
    in
    if not (mem !lex name) then begin
      lex := add_synset [ name ] !lex;
      names.(!count) <- name;
      incr count;
      (* Attach to a random earlier concept, building an isa forest. *)
      if !count > 1 then begin
        let parent = names.(Random.State.int rng (!count - 1)) in
        if parent <> name then lex := add_isa ~sub:name ~super:parent !lex
      end;
      (* Occasional synonym clusters. *)
      if !count mod 17 = 0 then begin
        let alias = name ^ " alias" in
        if (not (mem !lex alias)) && !count < n_terms then begin
          lex := add_synset [ name; alias ] !lex;
          names.(!count) <- alias;
          incr count
        end
      end
    end;
    incr i
  done;
  !lex
