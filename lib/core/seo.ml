module Hierarchy = Toss_hierarchy.Hierarchy
module Node = Toss_hierarchy.Node
module Metric = Toss_similarity.Metric
module Sea = Toss_similarity.Sea
module Levenshtein = Toss_similarity.Levenshtein
module Ontology = Toss_ontology.Ontology
module Maker = Toss_ontology.Maker
module Lexicon = Toss_ontology.Lexicon
module Fusion = Toss_ontology.Fusion
module Metrics = Toss_obs.Metrics

let h_build = Metrics.histogram "seo.build.seconds"
let m_digests = Metrics.counter "seo.build.digests"
let m_reused what = Metrics.counter ~labels:[ ("what", what) ] "seo.build.reused"
let m_reused_seo = m_reused "seo"
let m_reused_enhancement = m_reused "enhancement"
let m_universal = Metrics.counter "seo.lift.universal"

(* Deliberate sabotage for the build-reuse property in test_check; never
   set outside tests. *)
type fault = No_fault | Reuse_unchecked

let fault = ref No_fault

type t = {
  fused : Ontology.t;
  enhancement : Sea.t option;
  metric : Metric.t;
  eps : float;
  conversions : Conversion.t;
}

let create ?(conversions = Conversion.standard) ?(metric = Levenshtein.metric)
    ?(eps = 0.) ontology =
  if eps < 0. then Error "Seo.create: negative threshold"
  else begin
    let isa = Ontology.get Ontology.isa ontology in
    let enhancement =
      if eps = 0. then None
      else
        match Sea.enhance ~metric ~eps isa with
        | Some e -> Some e
        | None ->
            (* Figure 12's existential edge lift found a cycle: the triple
               is similarity inconsistent in the strict sense. Fall back
               to the universal lift (the one Theorem 1's proof uses),
               which keeps only the orderings every merged member agrees
               on and therefore always yields a DAG. *)
            Metrics.incr m_universal;
            Sea.enhance ~lift:Sea.Universal ~metric ~eps isa
    in
    Ok { fused = ontology; enhancement; metric; eps; conversions }
  end

let create_exn ?conversions ?metric ?eps ontology =
  match create ?conversions ?metric ?eps ontology with
  | Ok t -> t
  | Error msg -> failwith msg

let timed_build build =
  let t0 = Unix.gettimeofday () in
  let result = build () in
  Metrics.observe h_build (Unix.gettimeofday () -. t0);
  result

let digest ?lexicon ?content_tags ?max_content_terms doc =
  Metrics.incr m_digests;
  Maker.make ?lexicon ?content_tags ?max_content_terms doc

(* Relation by relation, [d] adds nothing to [fused] when
   1. each node of [d] lies inside one fused node: no new spelling, and
      no merge through a node holding several;
   2. each Hasse edge of [d] is already an ordering of [fused]
      (Definition 5's axiom 1 for the new source);
   3. each spelling of [d] shares its fused node with every synonym
      [fused] holds: [Maker.auto_constraints] equates the two once a
      second source holds the spelling (axiom 2).
   By 1, [d] brings no spelling that no old source holds, so every other
   constraint is one the old fusion already had. *)
let absorbs ?(lexicon = Lexicon.seeded) fused d =
  let relations = Ontology.relations fused in
  List.for_all
    (fun rel ->
      List.mem rel relations
      &&
      let h = Ontology.get rel fused and dh = Ontology.get rel d in
      let absorbed node =
        match Hierarchy.nodes_of (Node.representative node) h with
        | [] -> false
        | n :: _ ->
            Node.subset node n
            && List.for_all
                 (fun s ->
                   List.for_all
                     (fun t -> Node.mem t n || not (Hierarchy.mem_term t h))
                     (Lexicon.synonyms lexicon s))
                 (Node.strings node)
      in
      let ordered (u, v) =
        Hierarchy.leq h (Node.representative u) (Node.representative v)
      in
      List.for_all absorbed (Hierarchy.nodes dh) && List.for_all ordered (Hierarchy.edges dh))
    (Ontology.relations d)

(* Returning [previous] itself keeps [Rewrite]'s per-SEO expansion memo,
   keyed on the physical value, warm. *)
let of_ontologies ?(conversions = Conversion.standard) ?(metric = Levenshtein.metric)
    ?(eps = 0.) ?lexicon ?previous ontologies =
  let same_setup p = p.metric == metric && p.eps = eps && p.conversions == conversions in
  match previous with
  | Some (p, fresh)
    when same_setup p
         && (!fault = Reuse_unchecked || List.for_all (absorbs ?lexicon p.fused) fresh) ->
      Metrics.incr m_reused_seo;
      Ok p
  | _ -> (
      match Fusion.fuse_ontologies ontologies (Maker.auto_constraints ?lexicon ontologies) with
      | Error (rel, e) ->
          Error (Format.asprintf "fusion failed on relation %s: %a" rel Fusion.pp_error e)
      | Ok fused -> (
          let isa o = Ontology.get Ontology.isa o in
          match previous with
          | Some (p, _) when same_setup p && Hierarchy.equal (isa fused) (isa p.fused) ->
              Metrics.incr m_reused_enhancement;
              Ok { p with fused }
          | _ -> create ~conversions ~metric ~eps fused))

let of_documents ?conversions ?metric ?eps ?lexicon ?content_tags ?max_content_terms
    docs =
  timed_build (fun () ->
      of_ontologies ?conversions ?metric ?eps ?lexicon
        (List.map (digest ?lexicon ?content_tags ?max_content_terms) docs))

let conversions t = t.conversions
let enhancement t = t.enhancement
let ontology t = t.fused

let isa_hierarchy t =
  match t.enhancement with
  | Some e -> e.Sea.hierarchy
  | None -> Ontology.get Ontology.isa t.fused

let part_of_hierarchy t = Ontology.get Ontology.part_of t.fused

(* The ontology is authoritative for its own terms: two known terms are
   similar iff they co-reside in an enhanced node, and a known term is
   never similar to an unknown one (otherwise the rewriter's expansion of
   [~] into a disjunction over [similar_terms] would be unsound — the
   differential oracle flags exactly that). The raw-distance fallback
   applies only when both terms are outside the ontology. *)
let similar t x y =
  if x = y then true
  else
    let h = isa_hierarchy t in
    let known s = Hierarchy.mem_term s h in
    match (known x, known y) with
    | true, true -> (
        match t.enhancement with Some e -> Sea.similar e x y | None -> false)
    | false, false -> Metric.within t.metric ~eps:t.eps x y
    | _ -> false

let similar_terms t x =
  match t.enhancement with
  | Some e -> (
      match Sea.similar_terms e x with [] -> [ x ] | ts -> ts)
  | None -> [ x ]

let leq_isa t x y =
  if x = y then true else Hierarchy.leq (isa_hierarchy t) x y

let isa_below t x =
  let h = isa_hierarchy t in
  match Hierarchy.below x h with [] -> [ x ] | below -> below

let leq_part t x y = if x = y then true else Hierarchy.leq (part_of_hierarchy t) x y

let part_below t x =
  match Hierarchy.below x (part_of_hierarchy t) with [] -> [ x ] | below -> below

let knows_term t s = Hierarchy.mem_term s (isa_hierarchy t)

let n_terms t =
  List.length (Hierarchy.terms (isa_hierarchy t))
  + List.length (Hierarchy.terms (part_of_hierarchy t))
