module Tree = Toss_xml.Tree
module Pattern = Toss_tax.Pattern
module Condition = Toss_tax.Condition

(* Greedy delta-debugging: try every single-step reduction of the case;
   whenever one still reproduces a discrepancy, restart from the smaller
   case; stop at a fixpoint. Reductions drop whole documents, prune
   document subtrees, drop top-level condition conjuncts, drop ontology
   edges, drop SL entries, and remove leaf pattern nodes (together with
   the conjuncts and SL entries that mention them). *)

let drop_nth n xs = List.filteri (fun i _ -> i <> n) xs

let indices xs = List.init (List.length xs) Fun.id

(* Every tree obtainable by deleting one element child somewhere in the
   tree (the root itself stays). *)
let prune_variants tree =
  let rec go t =
    match t with
    | Tree.Text _ -> []
    | Tree.Element { tag; attrs; children } ->
        let drops =
          List.filter_map
            (fun i ->
              match List.nth children i with
              | Tree.Element _ -> Some (Tree.element ~attrs tag (drop_nth i children))
              | Tree.Text _ -> None)
            (indices children)
        in
        let recursed =
          List.concat_map
            (fun i ->
              List.map
                (fun c' ->
                  Tree.element ~attrs tag
                    (List.mapi (fun j c -> if j = i then c' else c) children))
                (go (List.nth children i)))
            (indices children)
        in
        drops @ recursed
  in
  go tree

(* Remove one leaf (non-root, and for joins not a side root) from the
   pattern shape; the condition loses every conjunct mentioning the
   label, and SL its entry. *)
let rec remove_label (n : Pattern.node) label =
  let children =
    List.filter_map
      (fun (k, c) ->
        if c.Pattern.label = label && c.Pattern.children = [] then None
        else Some (k, remove_label c label))
      n.Pattern.children
  in
  Pattern.node n.Pattern.label children

let removable_leaves (case : Gen.case) =
  let protected =
    match case.Gen.op with
    | Gen.Select -> [ case.Gen.pattern.Pattern.root.Pattern.label ]
    | Gen.Join ->
        (* The product root and its two side roots must survive. *)
        case.Gen.pattern.Pattern.root.Pattern.label
        :: List.map (fun (_, c) -> c.Pattern.label) case.Gen.pattern.Pattern.root.Pattern.children
  in
  let rec leaves (n : Pattern.node) =
    match n.Pattern.children with
    | [] -> [ n.Pattern.label ]
    | cs -> List.concat_map (fun (_, c) -> leaves c) cs
  in
  List.filter (fun l -> not (List.mem l protected)) (leaves case.Gen.pattern.Pattern.root)

let without_label (case : Gen.case) label =
  let root = remove_label case.Gen.pattern.Pattern.root label in
  let condition =
    Condition.conj
      (List.filter
         (fun c -> not (List.mem label (Condition.labels_used c)))
         (Condition.top_conjuncts case.Gen.pattern.Pattern.condition))
  in
  {
    case with
    Gen.pattern = Pattern.v root condition;
    sl = List.filter (fun l -> l <> label) case.Gen.sl;
  }

(* All one-step reductions, smallest-impact classes first (documents
   before structure: the acceptance bar is a few-document repro). *)
let reductions (case : Gen.case) =
  let conjuncts = Condition.top_conjuncts case.Gen.pattern.Pattern.condition in
  let with_condition cs =
    { case with Gen.pattern = Pattern.v case.Gen.pattern.Pattern.root (Condition.conj cs) }
  in
  List.concat
    [
      List.map (fun i -> { case with Gen.docs = drop_nth i case.Gen.docs })
        (indices case.Gen.docs);
      List.map (fun i -> { case with Gen.right_docs = drop_nth i case.Gen.right_docs })
        (indices case.Gen.right_docs);
      (if List.length conjuncts > 1 then
         List.map (fun i -> with_condition (drop_nth i conjuncts)) (indices conjuncts)
       else []);
      List.map (fun i -> { case with Gen.isa_edges = drop_nth i case.Gen.isa_edges })
        (indices case.Gen.isa_edges);
      List.map (fun i -> { case with Gen.part_edges = drop_nth i case.Gen.part_edges })
        (indices case.Gen.part_edges);
      List.map (fun i -> { case with Gen.sl = drop_nth i case.Gen.sl })
        (indices case.Gen.sl);
      List.map (without_label case) (removable_leaves case);
      List.concat_map
        (fun i ->
          List.map
            (fun d' ->
              { case with
                Gen.docs = List.mapi (fun j d -> if j = i then d' else d) case.Gen.docs })
            (prune_variants (List.nth case.Gen.docs i)))
        (indices case.Gen.docs);
      List.concat_map
        (fun i ->
          List.map
            (fun d' ->
              { case with
                Gen.right_docs =
                  List.mapi (fun j d -> if j = i then d' else d) case.Gen.right_docs })
            (prune_variants (List.nth case.Gen.right_docs i)))
        (indices case.Gen.right_docs);
    ]

let minimize ?(max_steps = 400) (case : Gen.case) =
  let steps = ref 0 in
  let rec go case failure =
    let next =
      List.find_map
        (fun candidate ->
          if !steps >= max_steps then None
          else begin
            incr steps;
            match Diff.check_case candidate with
            | Some f -> Some (candidate, f)
            | None -> None
          end)
        (reductions case)
    in
    match next with
    | Some (smaller, f) -> go smaller f
    | None -> (case, failure, !steps)
  in
  match Diff.check_case case with
  | None -> invalid_arg "Shrink.minimize: case does not fail"
  | Some failure -> go case failure
