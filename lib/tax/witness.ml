module Tree = Toss_xml.Tree
module Doc = Tree.Doc

let materialize doc node children_rev =
  let tag = Doc.tag doc node in
  let attrs = Doc.attrs doc node in
  match children_rev with
  | [] ->
      let c = Doc.content doc node in
      Tree.element ~attrs tag (if c = "" then [] else [ Tree.text c ])
  | _ -> Tree.element ~attrs tag (List.rev children_rev)

let forest_of doc nodes =
  let sorted = List.sort_uniq Int.compare nodes in
  (* Preorder sweep with an ancestor stack: when the next node is not a
     descendant of the stack top, the top is complete and folds into its
     parent. *)
  let roots = ref [] in
  let stack = ref [] in
  let close_top () =
    match !stack with
    | [] -> ()
    | (top, children_rev) :: rest -> (
        let tree = materialize doc top children_rev in
        match rest with
        | [] ->
            roots := tree :: !roots;
            stack := []
        | (p, p_children) :: more -> stack := (p, tree :: p_children) :: more)
  in
  List.iter
    (fun node ->
      let rec unwind () =
        match !stack with
        | (top, _) :: _ when not (Doc.is_descendant doc ~anc:top ~desc:node) ->
            close_top ();
            unwind ()
        | _ -> ()
      in
      unwind ();
      stack := (node, []) :: !stack)
    sorted;
  while !stack <> [] do
    close_top ()
  done;
  List.rev !roots

let nodes_of_binding doc binding ~sl =
  let images = List.map snd binding in
  let expanded =
    List.concat_map
      (fun (label, node) ->
        if List.mem label sl then node :: Doc.descendants doc node else [ node ])
      binding
  in
  List.sort_uniq Int.compare (images @ expanded)

let of_binding doc binding ~sl =
  match forest_of doc (nodes_of_binding doc binding ~sl) with
  | [ tree ] -> tree
  | trees ->
      (* The pattern root's image is an ancestor of every other image, so
         the forest is always a single tree. *)
      invalid_arg
        (Printf.sprintf "Witness.of_binding: %d roots (expected 1)" (List.length trees))

(* [Tree.compare] is a total order, so sorting makes a comparison of
   two result lists order-insensitive while still counting duplicates. *)
let canonical trees = List.sort Tree.compare trees
