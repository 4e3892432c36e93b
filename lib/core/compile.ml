module Pattern = Toss_tax.Pattern
module Condition = Toss_tax.Condition
module Doc = Toss_xml.Tree.Doc
module Metrics = Toss_obs.Metrics

let m_matchers = Metrics.counter "compile.matchers"
let m_nodes = Metrics.histogram "compile.nodes.visited"
let m_matches = Metrics.histogram "compile.matches"

(* One pattern node, flattened. [parent]/[children] index into the
   states array (pattern preorder, so state 0 is the pattern root and a
   parent always precedes its children). [edge] is the kind of the edge
   from the parent ([None] for the root). *)
type state = {
  label : int;
  parent : int;
  edge : Pattern.edge_kind option;
  children : int array;
  pred : Rewrite.pred;
}

type t = {
  mode : Rewrite.mode;
  pattern : Pattern.t;
  states : state array;
  eval : Condition.env -> Condition.t -> bool;
  (* Dispatch: a state whose predicate pins the tag ([Rewrite.pred_tag])
     can only match arena nodes carrying that tag, so the matcher looks
     states up by the node's tag instead of testing all of them.
     [untagged] states must still be tried everywhere. [ad_states] are
     the states whose edge is Ad — the only ones the end-of-node merge
     bubbles up. All three are derived from [states] at build time. *)
  tagged : (string, int list) Hashtbl.t;
  untagged : int list;
  ad_states : int list;
  (* The tag-pinned states with their tags, leaves first (they tend to
     carry the content predicates, so they reject a document soonest):
     what {!viable} checks before an arena pass. *)
  pinned : (int * string) list;
  (* The top-level conjuncts the per-state predicates do NOT already
     enforce: cross-label atoms, disjunctions, negations. Only these are
     re-evaluated over complete bindings; when every conjunct is local
     to one pattern label this is [True] and the final filter is free. *)
  residual : Condition.t;
}

type state_info = {
  state_label : int;
  state_parent : (int * Pattern.edge_kind) option;
  state_pred : string list;
}

let build ?(mode = Rewrite.Toss) seo (pattern : Pattern.t) =
  Metrics.incr m_matchers;
  let condition = pattern.Pattern.condition in
  let tbl = Hashtbl.create 8 in
  let count = ref 0 in
  let rec flatten parent edge (node : Pattern.node) =
    let idx = !count in
    incr count;
    let kids =
      List.map (fun (kind, child) -> flatten idx (Some kind) child) node.Pattern.children
    in
    Hashtbl.replace tbl idx (node.Pattern.label, parent, edge, kids);
    idx
  in
  ignore (flatten (-1) None pattern.Pattern.root);
  let states =
    Array.init !count (fun idx ->
        let label, parent, edge, kids = Hashtbl.find tbl idx in
        {
          label;
          parent;
          edge;
          children = Array.of_list kids;
          pred = Rewrite.compile_pred ~mode seo condition label;
        })
  in
  let eval =
    match mode with
    | Rewrite.Tax -> Condition.eval_tax
    | Rewrite.Toss -> Toss_condition.evaluator seo
  in
  let tagged = Hashtbl.create 8 in
  let untagged = ref [] in
  let ad_states = ref [] in
  let pinned = ref [] in
  for s = Array.length states - 1 downto 0 do
    (match Rewrite.pred_tag states.(s).pred with
    | Some tag ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt tagged tag) in
        Hashtbl.replace tagged tag (s :: prev);
        pinned := (s, tag) :: !pinned
    | None -> untagged := s :: !untagged);
    if states.(s).edge = Some Pattern.Ad then ad_states := s :: !ad_states
  done;
  let labels = Pattern.labels pattern in
  let enforced_by_states conjunct =
    match conjunct with
    | Condition.True -> true
    | Condition.And _ | Condition.Or _ | Condition.Not _ -> false
    | atom -> (
        match Condition.labels_used atom with
        | [ l ] -> List.mem l labels
        | [ l1; l2 ] -> l1 = l2 && List.mem l1 labels
        | _ -> false)
  in
  let residual =
    Condition.conj
      (List.filter
         (fun c -> not (enforced_by_states c))
         (Condition.top_conjuncts condition))
  in
  {
    mode;
    pattern;
    states;
    eval;
    tagged;
    untagged = !untagged;
    ad_states = !ad_states;
    pinned = List.rev !pinned;
    residual;
  }

let n_states t = Array.length t.states

let describe t =
  Array.to_list
    (Array.map
       (fun st ->
         {
           state_label = st.label;
           state_parent =
             (match st.edge with
             | None -> None
             | Some kind -> Some (t.states.(st.parent).label, kind));
           state_pred = Rewrite.pred_describe st.pred;
         })
       t.states)

(* Every embedding maps each tag-pinned state to a node of its tag that
   passes the state's predicate, and the root state to the document root
   under [pin_root]; a document where some state has no such node has no
   embedding, so skipping its arena pass changes no answer. *)
let viable ~pin_root ~by_tag t doc =
  let passes s n = Rewrite.pred_test t.states.(s).pred doc n in
  ((not pin_root) || passes 0 (Doc.root doc))
  && List.for_all
       (fun (s, tag) ->
         (pin_root && s = 0) || List.exists (passes s) (by_tag doc tag))
       t.pinned

type doc_stats = { nodes_visited : int; structural : int; n_matches : int }

let env_of doc binding label =
  Option.map (fun n -> (doc, n)) (List.assoc_opt label binding)

(* All ways to pick one sub-binding per child, in child order. The empty
   child list yields the single empty choice (a leaf state matches on
   its own predicate alone). *)
let rec product = function
  | [] -> [ [] ]
  | options :: rest ->
      let tails = product rest in
      List.concat_map (fun sub -> List.map (fun tail -> sub :: tail) tails) options

let run_doc ?(check = ignore) ?(pin_root = false) ?(skip_descendant = false) t doc =
  let k = Array.length t.states in
  let n = Doc.size doc in
  (* avail.(s).(m): complete sub-pattern bindings of state [s] available
     to a parent image at arena node [m] — matches at children of [m]
     for pc states, matches anywhere strictly below [m] for ad states
     (descendant matches bubble up via the end-of-node merge). *)
  let avail = Array.init k (fun _ -> Array.make n []) in
  let results = ref [] in
  let structural = ref 0 in
  let root_node = Doc.root doc in
  (* Reverse preorder: every arena descendant of [m] is processed —
     merges included — before [m] itself, so by the time a state is
     evaluated at [m] its children's availability at [m] is complete.
     Within one node the states are independent (a child image is always
     strictly below its parent image). *)
  for m = n - 1 downto 0 do
    check ();
    let parent = Doc.parent doc m in
    let try_state s =
      let st = t.states.(s) in
      if
        (s > 0 || (not pin_root) || m = root_node)
        && Rewrite.pred_test st.pred doc m
      then begin
        let emit =
          if s = 0 then fun binding ->
            incr structural;
            results := binding :: !results
          else
            match parent with
            | None -> fun _ -> ()
            | Some p -> fun binding -> avail.(s).(p) <- binding :: avail.(s).(p)
        in
        match st.children with
        | [||] -> emit [ (st.label, m) ]
        | children ->
            let options =
              Array.to_list (Array.map (fun c -> avail.(c).(m)) children)
            in
            if List.for_all (fun o -> o <> []) options then
              List.iter
                (fun choice -> emit ((st.label, m) :: List.concat choice))
                (product options)
      end
    in
    (* Only states whose pinned tag matches this node can pass their
       predicate, plus the states that pin no tag; within one node the
       order states are tried in is immaterial (a child image is always
       strictly below its parent image, and matches are sorted at the
       end). *)
    (match Hashtbl.find_opt t.tagged (Doc.tag doc m) with
    | Some candidates -> List.iter try_state candidates
    | None -> ());
    List.iter try_state t.untagged;
    (* Bubble ad-state matches found below [m] up to [m]'s parent.
       [skip_descendant] (fault injection) omits exactly this step,
       silently demoting every ad edge to pc semantics. *)
    match parent with
    | None -> ()
    | Some p ->
        if not skip_descendant then
          List.iter
            (fun s ->
              match avail.(s).(m) with
              | [] -> ()
              | below -> avail.(s).(p) <- List.rev_append below avail.(s).(p))
            t.ad_states
  done;
  let matches =
    (if t.residual = Condition.True then !results
     else
       List.filter (fun binding -> t.eval (env_of doc binding) t.residual) !results)
    |> List.sort compare
  in
  let stats =
    { nodes_visited = n; structural = !structural; n_matches = List.length matches }
  in
  Metrics.observe_int m_nodes n;
  Metrics.observe_int m_matches stats.n_matches;
  (matches, stats)
