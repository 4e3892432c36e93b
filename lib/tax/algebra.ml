module Tree = Toss_xml.Tree
module Doc = Tree.Doc

type collection = Tree.t list
type evaluator = Condition.env -> Condition.t -> bool

let default_eval : evaluator = Condition.eval_tax

(* Set semantics, preserving first-occurrence order (witness trees come
   out in document order and the examples rely on it). *)
let dedup trees =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun t ->
      if Hashtbl.mem seen t then false
      else begin
        Hashtbl.replace seen t ();
        true
      end)
    trees

let select ?(eval = default_eval) ~pattern ~sl collection =
  List.concat_map
    (fun tree ->
      let doc = Doc.of_tree tree in
      Embedding.enumerate ~eval doc pattern
      |> List.map (fun binding -> Witness.of_binding doc binding ~sl)
      |> dedup)
    collection

let project ?(eval = default_eval) ~pattern ~pl collection =
  List.concat_map
    (fun tree ->
      let doc = Doc.of_tree tree in
      let bindings = Embedding.enumerate ~eval doc pattern in
      let kept =
        List.concat_map
          (fun binding ->
            List.filter_map
              (fun (label, node) -> if List.mem label pl then Some node else None)
              binding)
          bindings
      in
      Witness.forest_of doc kept)
    collection

let prod_root_tag = "tax_prod_root"

let product c1 c2 =
  List.concat_map (fun t1 -> List.map (fun t2 -> Tree.element prod_root_tag [ t1; t2 ]) c2) c1

let join ?eval ~pattern ~sl c1 c2 = select ?eval ~pattern ~sl (product c1 c2)

let union c1 c2 = dedup (c1 @ c2)
let intersect c1 c2 = List.filter (fun t -> List.exists (Tree.equal t) c2) (dedup c1)

let difference c1 c2 =
  List.filter (fun t -> not (List.exists (Tree.equal t) c2)) (dedup c1)
