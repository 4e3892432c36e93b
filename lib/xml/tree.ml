type t =
  | Element of { tag : string; attrs : (string * string) list; children : t list }
  | Text of string

let element ?(attrs = []) tag children = Element { tag; attrs; children }
let text s = Text s
let leaf ?attrs tag s = element ?attrs tag [ text s ]

let string_value t =
  let buf = Buffer.create 64 in
  let rec go = function
    | Text s -> Buffer.add_string buf s
    | Element { children; _ } -> List.iter go children
  in
  go t;
  Buffer.contents buf

let rec n_elements = function
  | Text _ -> 0
  | Element { children; _ } ->
      1 + List.fold_left (fun n c -> n + n_elements c) 0 children

let equal (a : t) (b : t) = a = b
let compare (a : t) (b : t) = Stdlib.compare a b

let rec fold f acc t =
  match t with
  | Text _ -> f acc t
  | Element { children; _ } -> List.fold_left (fold f) (f acc t) children

module Doc = struct
  type tree = t

  type t = {
    tags : string array;
    attributes : (string * string) list array;
    contents : string array;
    kids : int list array;
    parents : int array;  (** -1 for the root *)
    depths : int array;
    last_desc : int array;  (** greatest preorder id within the subtree *)
    by_tag_index : (string, int list) Hashtbl.t;
  }

  type node = int

  let of_tree tree =
    let n =
      match tree with
      | Text _ -> invalid_arg "Doc.of_tree: root must be an element"
      | Element _ -> n_elements tree
    in
    let tags = Array.make n "" in
    let attributes = Array.make n [] in
    let contents = Array.make n "" in
    let kids = Array.make n [] in
    let parents = Array.make n (-1) in
    let depths = Array.make n 0 in
    let last_desc = Array.make n 0 in
    let counter = ref 0 in
    let rec assign parent depth = function
      | Text _ -> None
      | Element { tag; attrs; children } as el ->
          let id = !counter in
          incr counter;
          tags.(id) <- tag;
          attributes.(id) <- attrs;
          contents.(id) <- string_value el;
          parents.(id) <- parent;
          depths.(id) <- depth;
          let child_ids = List.filter_map (assign id (depth + 1)) children in
          kids.(id) <- child_ids;
          last_desc.(id) <- !counter - 1;
          Some id
    in
    ignore (assign (-1) 0 tree);
    let by_tag_index = Hashtbl.create 64 in
    for id = n - 1 downto 0 do
      let existing = Option.value ~default:[] (Hashtbl.find_opt by_tag_index tags.(id)) in
      Hashtbl.replace by_tag_index tags.(id) (id :: existing)
    done;
    { tags; attributes; contents; kids; parents; depths; last_desc; by_tag_index }

  let root _ = 0
  let size d = Array.length d.tags
  let nodes d = List.init (size d) Fun.id
  let tag d n = d.tags.(n)
  let attrs d n = d.attributes.(n)
  let content d n = d.contents.(n)
  let children d n = d.kids.(n)
  let parent d n = if d.parents.(n) < 0 then None else Some d.parents.(n)
  let is_child d ~parent ~child = d.parents.(child) = parent
  let is_descendant d ~anc ~desc = anc < desc && desc <= d.last_desc.(anc)

  let descendants d n =
    let rec range i acc = if i > d.last_desc.(n) then List.rev acc else range (i + 1) (i :: acc) in
    range (n + 1) []

  let by_tag d t = Option.value ~default:[] (Hashtbl.find_opt d.by_tag_index t)

  let tags d =
    Hashtbl.fold (fun t _ acc -> t :: acc) d.by_tag_index []
    |> List.sort String.compare

  let subtree d n =
    (* Reconstruct from the arrays. Direct text is recovered as the node's
       string-value minus its element children's string-values only when
       the node has no element children; mixed content loses text ordering
       around child elements, which the algebra never relies on. *)
    let rec build n =
      match d.kids.(n) with
      | [] ->
          let c = d.contents.(n) in
          element ~attrs:d.attributes.(n) d.tags.(n) (if c = "" then [] else [ text c ])
      | ids -> element ~attrs:d.attributes.(n) d.tags.(n) (List.map build ids)
    in
    build n

  let to_tree d = subtree d 0
end
