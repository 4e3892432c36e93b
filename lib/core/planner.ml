module Pattern = Toss_tax.Pattern
module Condition = Toss_tax.Condition
module Collection = Toss_store.Collection
module Metrics = Toss_obs.Metrics

let m_plans = Metrics.counter "planner.plans"
let m_compiled = Metrics.counter "planner.plans.compiled"
let m_hash_joins = Metrics.counter "planner.joins.hash"
let m_nested_joins = Metrics.counter "planner.joins.nested_loop"
let m_sim_joins = Metrics.counter "planner.joins.sim"

(* Scans for one side's label queries: estimated through the collection
   statistics and ordered most-selective-first under [optimize], left in
   rewrite (pattern preorder) order otherwise. The sort is stable, so
   equally-selective scans keep their rewrite order. *)
let scans_of ~optimize coll queries =
  let scans =
    List.map
      (fun (label, xpath) ->
        let est_rows =
          if optimize then Some (Collection.Snapshot.estimate_rows coll xpath)
          else None
        in
        { Plan.scan_label = label; xpath; est_rows })
      queries
  in
  if optimize then
    List.stable_sort
      (fun a b ->
        compare
          (Option.value ~default:max_int a.Plan.est_rows)
          (Option.value ~default:max_int b.Plan.est_rows))
      scans
  else scans

let filter_of ~optimize coll ~side ~required queries =
  let scans = scans_of ~optimize coll queries in
  let filter =
    Plan.Candidate_filter
      { side; scans = List.map (fun s -> Plan.Label_scan s) scans }
  in
  if optimize then Plan.Doc_prune { required; input = filter } else filter

let plan_select ?(mode = Rewrite.Toss) ?(optimize = true) ?(compile = true) seo
    coll ~pattern ~sl =
  Metrics.incr m_plans;
  let spec =
    { Plan.side = Plan.Single; sub_pattern = pattern; sub_sl = sl; pin_root = false }
  in
  if compile then begin
    Metrics.incr m_compiled;
    let matcher = Compile.build ~mode seo pattern in
    { Plan.mode; root = Plan.Compiled_match { spec; matcher } }
  end
  else
    let queries = Rewrite.label_queries ~mode seo pattern in
    let input =
      filter_of ~optimize coll ~side:Plan.Single
        ~required:(Pattern.labels pattern) queries
    in
    { Plan.mode; root = Plan.Embed { spec; input } }

(* The sub-pattern rooted at a child of the join pattern's root, with the
   original condition restricted to the conjuncts local to that side. *)
let top_conjuncts = Condition.top_conjuncts

let side_pattern (pattern : Pattern.t) (child : Pattern.node) =
  let rec labels_of (n : Pattern.node) =
    n.Pattern.label :: List.concat_map (fun (_, c) -> labels_of c) n.Pattern.children
  in
  let side_labels = labels_of child in
  let local =
    List.filter
      (fun conjunct ->
        let used = Condition.labels_used conjunct in
        used <> [] && List.for_all (fun l -> List.mem l side_labels) used)
      (top_conjuncts pattern.Pattern.condition)
  in
  (Pattern.v child (Condition.conj local), side_labels)

(* Conjuncts mentioning the product root (e.g. #0.tag = tax_prod_root)
   describe the synthetic product node and are dropped; they hold by
   construction of the result. *)
let cross_condition_of (pattern : Pattern.t) =
  let root_label = pattern.Pattern.root.Pattern.label in
  Condition.conj
    (List.filter
       (fun c -> not (List.mem root_label (Condition.labels_used c)))
       (top_conjuncts pattern.Pattern.condition))

let term_label = function
  | Condition.Tag l | Condition.Content l -> Some l
  | Condition.Str _ -> None

(* Top-level equality conjuncts with one term on each side become hash
   partition keys, normalized to (left term, right term). Because each
   is a top-level conjunct of the cross condition, a key mismatch
   implies the condition is false — partitioning only skips pairs the
   nested loop would reject. *)
let hash_keys ~left_labels ~right_labels cross_condition =
  List.filter_map
    (function
      | Condition.Cmp (a, Condition.Eq, b) -> (
          match (term_label a, term_label b) with
          | Some la, Some lb
            when List.mem la left_labels && List.mem lb right_labels ->
              Some (a, b)
          | Some la, Some lb
            when List.mem la right_labels && List.mem lb left_labels ->
              Some (b, a)
          | _ -> None)
      | _ -> None)
    (top_conjuncts cross_condition)

(* The first top-level [~]/[isa] cross conjunct with one node term on
   each side drives the similarity-join operator, normalized to (probe
   term, build term, signature scheme). Tax-mode [isa] is substring
   containment, which admits no finite signature, so only [~] qualifies
   there; the metric fallback inside {!Simjoin} covers terms outside the
   ontology. *)
let sim_atom ~mode ~left_labels ~right_labels seo cross_condition =
  let split a b =
    match (term_label a, term_label b) with
    | Some la, Some lb when List.mem la left_labels && List.mem lb right_labels ->
        Some `Forward
    | Some la, Some lb when List.mem la right_labels && List.mem lb left_labels ->
        Some `Swapped
    | _ -> None
  in
  List.find_map
    (fun conjunct ->
      match conjunct with
      | Toss_tax.Condition.Sim (a, b) as atom -> (
          let scheme () = Simjoin.sim_scheme ~mode seo in
          match split a b with
          | Some `Forward -> Some (atom, a, b, scheme ())
          | Some `Swapped -> Some (atom, b, a, scheme ())
          | None -> None)
      | Toss_tax.Condition.Isa (a, b) as atom when mode = Rewrite.Toss -> (
          (* [a isa b]: a must lie at-or-below b. *)
          match split a b with
          | Some `Forward -> Some (atom, a, b, Simjoin.isa_scheme ~below:`Probe seo)
          | Some `Swapped -> Some (atom, b, a, Simjoin.isa_scheme ~below:`Build seo)
          | None -> None)
      | _ -> None)
    (top_conjuncts cross_condition)

(* Below this many build-side documents the quadratic term is already
   gone and signature construction is pure overhead — and a 1-document
   build side is what the tiny-build-fallback unit test pins. *)
let min_simjoin_build_docs = 2

let plan_join ?(mode = Rewrite.Toss) ?(optimize = true) ?(compile = true) seo
    left_coll right_coll ~pattern ~sl =
  Metrics.incr m_plans;
  if compile then Metrics.incr m_compiled;
  let root = pattern.Pattern.root in
  let (left_kind, left_child), (right_kind, right_child) =
    match root.Pattern.children with
    | [ l; r ] -> (l, r)
    | _ -> invalid_arg "Executor.join: the pattern root must have exactly two children"
  in
  let left_pattern, left_labels = side_pattern pattern left_child in
  let right_pattern, right_labels = side_pattern pattern right_child in
  let branch side coll kind sub_pattern labels =
    let spec =
      {
        Plan.side;
        sub_pattern;
        sub_sl = List.filter (fun l -> List.mem l labels) sl;
        pin_root = kind = Pattern.Pc;
      }
    in
    if compile then
      Plan.Compiled_match { spec; matcher = Compile.build ~mode seo sub_pattern }
    else
      let queries = Rewrite.label_queries ~mode seo sub_pattern in
      let input =
        filter_of ~optimize coll ~side
          ~required:(Pattern.labels sub_pattern) queries
      in
      Plan.Embed { spec; input }
  in
  let left = branch Plan.Left left_coll left_kind left_pattern left_labels in
  let right = branch Plan.Right right_coll right_kind right_pattern right_labels in
  let cross_condition = cross_condition_of pattern in
  let keys =
    if optimize then hash_keys ~left_labels ~right_labels cross_condition
    else []
  in
  (* Equality keys partition exactly and win outright; a [~]/[isa] atom
     is worth an index only when the build side is big enough for the
     quadratic term to matter. *)
  let sim =
    if
      optimize && keys = []
      && Collection.Snapshot.n_documents right_coll >= min_simjoin_build_docs
    then sim_atom ~mode ~left_labels ~right_labels seo cross_condition
    else None
  in
  let pairing =
    if keys <> [] then begin
      Metrics.incr m_hash_joins;
      Plan.Hash_pair { keys; cross_condition; left; right }
    end
    else
      match sim with
      | Some (atom, lterm, rterm, scheme) ->
          Metrics.incr m_sim_joins;
          Plan.Sim_pair
            { atom; lterm; rterm; scheme; cross_condition; left; right }
      | None ->
          Metrics.incr m_nested_joins;
          Plan.Nested_loop_pair { cross_condition; left; right }
  in
  { Plan.mode; root = Plan.Dedup pairing }
