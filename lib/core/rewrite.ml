module Pattern = Toss_tax.Pattern
module Condition = Toss_tax.Condition
module Xpath = Toss_store.Xpath
module Metrics = Toss_obs.Metrics

type mode = Tax | Toss

let m_rewrites = Metrics.counter "rewrite.patterns"
let m_queries = Metrics.counter "rewrite.label_queries"
let m_degraded = Metrics.counter "rewrite.degraded"

(* Cache-ability: a label query built from purely structural atoms (tags,
   content equality, containment) is valid under any SEO, so a rewrite
   cache could keep it across ontology rebuilds; one that consulted the
   SEO must be invalidated with it. *)
let m_seo_dependent = Metrics.counter "rewrite.queries.seo_dependent"
let m_cacheable = Metrics.counter "rewrite.queries.seo_independent"

(* Memoized SEO expansions, shared across label queries: one pattern
   typically consults the same constant several times (tag options,
   content predicates, both sides of a join, the explainer), and the
   expansions walk the ontology hierarchies each time. The cache is keyed
   on the physical SEO value — a rebuilt ontology is a new value and
   invalidates it wholesale — and holds a strong reference to the last
   SEO used, which is by design: the SEO is the long-lived precomputed
   artifact of the TOSS architecture.

   The cache lives in domain-local storage: rewrites run concurrently on
   the server's domain pool, and a shared table would need a lock on the
   rewrite hot path. Each domain warms its own copy (the expansions are
   pure, so duplicated work is the only cost) and the owner check
   resets a domain's cache the first time it sees a rebuilt SEO. *)
let m_cache_hits = Metrics.counter "rewrite.cache.hits"
let m_cache_misses = Metrics.counter "rewrite.cache.misses"

type expansion_cache = {
  table : (string * string, string list) Hashtbl.t;
  mutable owner : Seo.t option;
}

let cache_key : expansion_cache Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { table = Hashtbl.create 64; owner = None })

let cached_expansion seo ~op ~constant compute =
  let cache = Domain.DLS.get cache_key in
  (match cache.owner with
  | Some owner when owner == seo -> ()
  | _ ->
      Hashtbl.reset cache.table;
      cache.owner <- Some seo);
  match Hashtbl.find_opt cache.table (op, constant) with
  | Some terms ->
      Metrics.incr m_cache_hits;
      terms
  | None ->
      Metrics.incr m_cache_misses;
      let terms = compute seo constant in
      Hashtbl.replace cache.table (op, constant) terms;
      terms

let similar_terms seo s = cached_expansion seo ~op:"~" ~constant:s Seo.similar_terms
let isa_below seo s = cached_expansion seo ~op:"isa" ~constant:s Seo.isa_below
let part_below seo s = cached_expansion seo ~op:"part_of" ~constant:s Seo.part_below

(* [below] (and its mirror [above]) has a second leg besides the isa
   hierarchy: a value is below a primitive type name whenever its
   inferred type matches ("1999" below "year"). An isa-expansion
   pushdown would drop those candidates, so [below] atoms whose constant
   names a primitive type are never pushed. *)
let is_type_name s = Option.is_some (Toss_xml.Value_type.of_name s)

(* Both evaluators compare [Eq] numerically when the two values parse as
   numbers ("1999.0" = "1999"), so an exact-text [Content_eq] pushdown is
   only sound for constants that are not numbers. *)
let pushable_eq_constant s = Option.is_none (float_of_string_opt s)

let atom_consults_seo = function
  | Condition.Sim _ | Condition.Isa _ | Condition.Below _ | Condition.Above _
  | Condition.Part_of _ | Condition.Instance_of _ | Condition.Subtype_of _ ->
      true
  | _ -> false

(* Tag alternatives for one pattern node: [None] = unconstrained. *)
let tag_options ~mode ~max_expansion seo atoms =
  let constrain current options =
    match current with
    | None -> Some options
    | Some existing -> Some (List.filter (fun t -> List.mem t options) existing)
  in
  List.fold_left
    (fun acc atom ->
      match (atom, mode) with
      | Condition.Cmp (Condition.Tag _, Condition.Eq, Condition.Str s), _
      | Condition.Cmp (Condition.Str s, Condition.Eq, Condition.Tag _), _
        when pushable_eq_constant s ->
          constrain acc [ s ]
      | Condition.Isa (Condition.Tag _, Condition.Str s), Toss ->
          let below = isa_below seo s in
          if List.length below <= max_expansion then constrain acc below else acc
      | Condition.Below (Condition.Tag _, Condition.Str s), Toss
        when not (is_type_name s) ->
          let below = isa_below seo s in
          if List.length below <= max_expansion then constrain acc below else acc
      | Condition.Part_of (Condition.Tag _, Condition.Str s), Toss ->
          let below = part_below seo s in
          if List.length below <= max_expansion then constrain acc below else acc
      | _ -> acc)
    None atoms

(* Content predicates for one pattern node. *)
let content_predicates ~mode ~max_expansion seo atoms =
  let eq_disjunction values =
    match values with
    | [] -> None
    | v :: vs ->
        Some
          (List.fold_left
             (fun p v -> Xpath.Or (p, Xpath.Content_eq v))
             (Xpath.Content_eq v) vs)
  in
  List.filter_map
    (fun atom ->
      match (atom, mode) with
      | Condition.Cmp (Condition.Content _, Condition.Eq, Condition.Str s), _
      | Condition.Cmp (Condition.Str s, Condition.Eq, Condition.Content _), _
        when pushable_eq_constant s ->
          Some (Xpath.Content_eq s)
      | Condition.Contains (Condition.Content _, s), _ ->
          Some (Xpath.Content_contains s)
      | Condition.Sim (Condition.Content _, Condition.Str s), Tax
      | Condition.Sim (Condition.Str s, Condition.Content _), Tax ->
          Some (Xpath.Content_eq s)
      | Condition.Sim (Condition.Content _, Condition.Str s), Toss
      | Condition.Sim (Condition.Str s, Condition.Content _), Toss ->
          (* Only push the expansion when the constant is an ontology term;
             otherwise the evaluator's direct-distance fallback must see
             unrestricted candidates. *)
          if Seo.knows_term seo s then begin
            let terms = similar_terms seo s in
            if List.length terms <= max_expansion then eq_disjunction terms else None
          end
          else None
      | Condition.Isa (Condition.Content _, Condition.Str s), Tax
      | Condition.Below (Condition.Content _, Condition.Str s), Tax ->
          Some (Xpath.Content_contains s)
      | Condition.Isa (Condition.Content _, Condition.Str s), Toss ->
          let terms = isa_below seo s in
          if List.length terms <= max_expansion then eq_disjunction terms else None
      | Condition.Below (Condition.Content _, Condition.Str s), Toss
        when not (is_type_name s) ->
          let terms = isa_below seo s in
          if List.length terms <= max_expansion then eq_disjunction terms else None
      | Condition.Part_of (Condition.Content _, Condition.Str s), Toss ->
          let terms = part_below seo s in
          if List.length terms <= max_expansion then eq_disjunction terms else None
      | _ -> None)
    atoms

(* The chain of pattern nodes from the root down to [label], with the edge
   kinds along the way (one fewer than the nodes). *)
let chain_to (pattern : Pattern.t) label =
  let rec search (node : Pattern.node) =
    if node.Pattern.label = label then Some ([ node ], [])
    else
      List.find_map
        (fun (kind, child) ->
          Option.map
            (fun (nodes, kinds) -> (node :: nodes, kind :: kinds))
            (search child))
        node.Pattern.children
  in
  search pattern.Pattern.root

let label_queries ?(mode = Toss) ?(max_expansion = 64) seo (pattern : Pattern.t) =
  Metrics.incr m_rewrites;
  let condition = pattern.Pattern.condition in
  let step_of (node : Pattern.node) axis =
    let atoms = Condition.local_atoms condition node.Pattern.label in
    let tags = tag_options ~mode ~max_expansion seo atoms in
    let predicates = content_predicates ~mode ~max_expansion seo atoms in
    let tags =
      match tags with
      | Some ts when List.length ts <= max_expansion && ts <> [] -> Some ts
      | Some [] -> Some []
      | _ -> None
    in
    (axis, tags, predicates)
  in
  let query_for label =
    Metrics.incr m_queries;
    let note_cacheability nodes =
      let consults_seo =
        mode = Toss
        && List.exists
             (fun (n : Pattern.node) ->
               List.exists atom_consults_seo
                 (Condition.local_atoms condition n.Pattern.label))
             nodes
      in
      Metrics.incr (if consults_seo then m_seo_dependent else m_cacheable)
    in
    let note_fanout n =
      Metrics.observe_int
        (Metrics.histogram ~labels:[ ("label", string_of_int label) ] "rewrite.fanout")
        n
    in
    match chain_to pattern label with
    | None ->
        note_cacheability [];
        note_fanout 1;
        Xpath.path [ Xpath.any ~axis:Xpath.Descendant () ]
    | Some (nodes, kinds) ->
        note_cacheability nodes;
        (* First node uses the descendant axis (a pattern can embed
           anywhere); subsequent axes follow the edge kinds. *)
        let axes =
          Xpath.Descendant
          :: List.map
               (fun kind ->
                 match kind with Pattern.Pc -> Xpath.Child | Pattern.Ad -> Xpath.Descendant)
               kinds
        in
        let steps = List.map2 step_of nodes axes in
        (* Expand tag alternatives into a union of paths, capped. *)
        let paths =
          List.fold_left
            (fun paths (axis, tags, predicates) ->
              let options =
                match tags with
                | None -> [ Xpath.any ~axis ~predicates () ]
                | Some ts -> List.map (fun tg -> Xpath.step ~axis ~predicates tg) ts
              in
              List.concat_map (fun path -> List.map (fun st -> st :: path) options) paths)
            [ [] ] steps
        in
        let paths = List.map List.rev paths in
        note_fanout (List.length paths);
        if List.length paths > max_expansion then begin
          (* Too many alternatives: drop the name tests, keep structure. *)
          Metrics.incr m_degraded;
          Xpath.path
            (List.map (fun (axis, _, predicates) -> Xpath.any ~axis ~predicates ()) steps)
        end
        else paths
  in
  List.map (fun label -> (label, query_for label)) (Pattern.labels pattern)

(* ---------------------- compiled predicates ----------------------- *)

module Doc = Toss_xml.Tree.Doc
module Value_type = Toss_xml.Value_type

type pred = {
  pred_label : int;
  tests : (Doc.t -> Doc.node -> bool) list;
  descriptions : string list;
  required_tag : string option;
}

let set_of terms =
  let tbl = Hashtbl.create (max 8 (List.length terms)) in
  List.iter (fun t -> Hashtbl.replace tbl t ()) terms;
  tbl

(* The value a node-local term takes at one arena node. Only called on
   [Tag]/[Content] terms of the predicate's own label — [local_atoms]
   guarantees no other label appears. *)
let node_value term doc n =
  match term with
  | Condition.Tag _ -> Doc.tag doc n
  | Condition.Content _ -> Doc.content doc n
  | Condition.Str s -> s

let is_node_term = function
  | Condition.Tag _ | Condition.Content _ -> true
  | Condition.Str _ -> false

let atom_str atom = Format.asprintf "%a" Condition.pp atom

(* One node-local atom compiled to a closure. The fast paths replace the
   evaluator's hierarchy walks with a membership test against the
   memoized expansion set; each is used only where it is {e exactly}
   equivalent to the evaluator (the same soundness analysis as the XPath
   pushdowns, but without the one-sided-implication slack: a compiled
   predicate is the final word for its atom, not a prefilter):

   - [~] against a constant the SEO knows: {!Seo.similar} is
     authoritative for known terms, so membership in [similar_terms] is
     the predicate. Unknown constants keep the raw-distance fallback and
     stay on the generic evaluator.
   - [isa]/[part_of]: [v <= s] holds iff [v] is in the below-set of [s]
     (reflexivity and the unknown-term fallback both preserved by
     {!Seo.isa_below}'s own fallback).
   - [below]/[instance_of]/reversed [above]: the isa leg is the
     below-set, the type-inference leg ("1999" below "year") is kept as
     an explicit disjunct — the reason these atoms can never be pushed
     into XPath is precisely that this leg has no finite expansion, but
     a closure can just evaluate it.
   - [subtype_of]: both sides must be known terms, so an unknown
     constant compiles to [false]; a known one to set membership (every
     member of a below-set is a known term).
   - [=]/[<>] against a plain-string constant: both modes compare
     numerically only when the constant parses as a float, and the TOSS
     evaluator converts only between inferred value types with a
     registered conversion path — none of which reach "string" — so the
     comparison reduces to string (in)equality. This is the matcher's
     hottest atom (every tag constraint), evaluated once per arena node
     per state.

   Everything else — order comparisons, containment, unknown-term [~],
   reversed operators, node-to-node atoms like [#1.tag ~ #1.content] —
   compiles to the mode's evaluator under a single-label environment,
   which is the same thing the interpreter's embedding prefilter runs. *)
let plain_string_constant ~mode seo s =
  float_of_string_opt s = None
  &&
  match mode with
  | Tax -> true
  | Toss ->
      Value_type.name (Value_type.infer s) = "string"
      &&
      let conv = Seo.conversions seo in
      List.for_all
        (fun t ->
          t = "string"
          || (not (Conversion.exists conv ~from:t ~into:"string")
             && not (Conversion.exists conv ~from:"string" ~into:t)))
        (Conversion.types conv)

let compile_atom ~mode seo atom =
  let generic_eval =
    match mode with Tax -> Condition.eval_tax | Toss -> Toss_condition.evaluator seo
  in
  let generic label =
    ( atom_str atom ^ " [direct]",
      fun doc n ->
        generic_eval (fun l -> if l = label then Some (doc, n) else None) atom )
  in
  let membership x terms =
    let set = set_of terms in
    ( Printf.sprintf "%s [set:%d]" (atom_str atom) (Hashtbl.length set),
      fun doc n -> Hashtbl.mem set (node_value x doc n) )
  in
  let below_like x s =
    let set = set_of (isa_below seo s) in
    ( Printf.sprintf "%s [set:%d + type]" (atom_str atom) (Hashtbl.length set),
      fun doc n ->
        let v = node_value x doc n in
        Hashtbl.mem set v || Value_type.name (Value_type.infer v) = s )
  in
  let string_cmp x op s =
    let test =
      match op with
      | Condition.Eq -> fun doc n -> String.equal (node_value x doc n) s
      | _ -> fun doc n -> not (String.equal (node_value x doc n) s)
    in
    ( Printf.sprintf "%s [string-%s]" (atom_str atom)
        (if op = Condition.Eq then "eq" else "neq"),
      test )
  in
  let label =
    match Condition.labels_used atom with
    | l :: _ -> l
    | [] -> invalid_arg "Rewrite.compile_pred: constant-only atom"
  in
  match (atom, mode) with
  | Condition.Sim (x, Condition.Str s), Toss
    when is_node_term x && Seo.knows_term seo s ->
      membership x (similar_terms seo s)
  | Condition.Sim (Condition.Str s, x), Toss
    when is_node_term x && Seo.knows_term seo s ->
      membership x (similar_terms seo s)
  | Condition.Isa (x, Condition.Str s), Toss when is_node_term x ->
      membership x (isa_below seo s)
  | Condition.Part_of (x, Condition.Str s), Toss when is_node_term x ->
      membership x (part_below seo s)
  | Condition.Below (x, Condition.Str s), Toss
  | Condition.Instance_of (x, Condition.Str s), Toss
    when is_node_term x ->
      below_like x s
  | Condition.Above (Condition.Str s, x), Toss when is_node_term x ->
      below_like x s
  | Condition.Subtype_of (x, Condition.Str s), Toss when is_node_term x ->
      if Seo.knows_term seo s then membership x (isa_below seo s)
      else (atom_str atom ^ " [const:false]", fun _ _ -> false)
  | Condition.Cmp (x, ((Condition.Eq | Condition.Neq) as op), Condition.Str s), _
    when is_node_term x && plain_string_constant ~mode seo s ->
      string_cmp x op s
  | Condition.Cmp (Condition.Str s, ((Condition.Eq | Condition.Neq) as op), x), _
    when is_node_term x && plain_string_constant ~mode seo s ->
      string_cmp x op s
  | _ -> generic label

let compile_pred ?(mode = Toss) seo condition label =
  let atoms = Condition.local_atoms condition label in
  let compiled = List.map (compile_atom ~mode seo) atoms in
  let required_tag =
    List.find_map
      (function
        | Condition.Cmp (Condition.Tag _, Condition.Eq, Condition.Str s)
        | Condition.Cmp (Condition.Str s, Condition.Eq, Condition.Tag _)
          when plain_string_constant ~mode seo s ->
            Some s
        | _ -> None)
      atoms
  in
  {
    pred_label = label;
    tests = List.map snd compiled;
    descriptions = List.map fst compiled;
    required_tag;
  }

let pred_test p doc n = List.for_all (fun test -> test doc n) p.tests
let pred_describe p = p.descriptions
let pred_tag p = p.required_tag

let rec expand_condition seo c =
  let eq_disj term values =
    Condition.disj
      (List.map (fun v -> Condition.Cmp (term, Condition.Eq, Condition.Str v)) values)
  in
  match c with
  | Condition.Sim (x, Condition.Str s) -> eq_disj x (similar_terms seo s)
  | Condition.Sim (Condition.Str s, x) -> eq_disj x (similar_terms seo s)
  | Condition.Isa (x, Condition.Str s) -> eq_disj x (isa_below seo s)
  | Condition.Below (x, Condition.Str s) when not (is_type_name s) ->
      eq_disj x (isa_below seo s)
  | Condition.Part_of (x, Condition.Str s) -> eq_disj x (part_below seo s)
  | Condition.Above (Condition.Str s, x) when not (is_type_name s) ->
      eq_disj x (isa_below seo s)
  | Condition.And (p, q) -> Condition.And (expand_condition seo p, expand_condition seo q)
  | Condition.Or (p, q) -> Condition.Or (expand_condition seo p, expand_condition seo q)
  | Condition.Not p -> Condition.Not (expand_condition seo p)
  | c -> c
