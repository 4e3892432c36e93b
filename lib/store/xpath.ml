module Tree = Toss_xml.Tree
module Doc = Tree.Doc

type axis = Child | Descendant
type name_test = Tag of string | Any

type predicate =
  | Content_eq of string
  | Content_contains of string
  | Child_eq of string * string
  | Child_contains of string * string
  | Has_child of string
  | Attr_eq of string * string
  | Position of int
  | And of predicate * predicate
  | Or of predicate * predicate
  | Not of predicate

type step = { axis : axis; test : name_test; predicates : predicate list }
type path = step list
type t = path list

let path steps = [ steps ]
let step ?(axis = Child) ?(predicates = []) tag = { axis; test = Tag tag; predicates }
let any ?(axis = Child) ?(predicates = []) () = { axis; test = Any; predicates }

let contains ~needle haystack =
  let nh = String.length haystack and nn = String.length needle in
  if nn = 0 then true
  else
    let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
    go 0

let rec matches doc node = function
  | Content_eq v -> Doc.content doc node = v
  | Content_contains v -> contains ~needle:v (Doc.content doc node)
  | Child_eq (tag, v) ->
      List.exists
        (fun c -> Doc.tag doc c = tag && Doc.content doc c = v)
        (Doc.children doc node)
  | Child_contains (tag, v) ->
      List.exists
        (fun c -> Doc.tag doc c = tag && contains ~needle:v (Doc.content doc c))
        (Doc.children doc node)
  | Has_child tag -> List.exists (fun c -> Doc.tag doc c = tag) (Doc.children doc node)
  | Attr_eq (a, v) -> List.assoc_opt a (Doc.attrs doc node) = Some v
  | Position _ -> true
  | And (p, q) -> matches doc node p && matches doc node q
  | Or (p, q) -> matches doc node p || matches doc node q
  | Not p -> not (matches doc node p)

let test_ok doc node = function Any -> true | Tag t -> Doc.tag doc node = t

(* Candidates of a step relative to a context node, before predicates.
   [root_step] handles the first step of an absolute path, whose child
   axis selects the document root itself. *)
let step_candidates doc context st ~root_step =
  match (st.axis, root_step) with
  | Child, true -> if test_ok doc context st.test then [ context ] else []
  | Child, false -> List.filter (fun n -> test_ok doc n st.test) (Doc.children doc context)
  | Descendant, true ->
      let self = if test_ok doc context st.test then [ context ] else [] in
      self @ List.filter (fun n -> test_ok doc n st.test) (Doc.descendants doc context)
  | Descendant, false ->
      List.filter (fun n -> test_ok doc n st.test) (Doc.descendants doc context)

let apply_predicates doc st nodes =
  List.fold_left
    (fun nodes pred ->
      match pred with
      | Position k -> (
          (* 1-based position within the candidate list. *)
          match List.nth_opt nodes (k - 1) with Some n -> [ n ] | None -> [])
      | p -> List.filter (fun n -> matches doc n p) nodes)
    nodes st.predicates

let eval_path doc steps =
  let rec go contexts root_step = function
    | [] -> contexts
    | st :: rest ->
        let nexts =
          List.concat_map
            (fun ctx -> apply_predicates doc st (step_candidates doc ctx st ~root_step))
            contexts
        in
        go nexts false rest
  in
  go [ Doc.root doc ] true steps

let eval doc t =
  List.concat_map (eval_path doc) t |> List.sort_uniq Int.compare

let escape_string v =
  (* Single-quoted literal; single quotes inside are not supported by the
     grammar, so replace them defensively. *)
  String.map (fun c -> if c = '\'' then '"' else c) v

let rec predicate_to_string = function
  | Content_eq v -> Printf.sprintf ".='%s'" (escape_string v)
  | Content_contains v -> Printf.sprintf "contains(.,'%s')" (escape_string v)
  | Child_eq (t, v) -> Printf.sprintf "%s='%s'" t (escape_string v)
  | Child_contains (t, v) -> Printf.sprintf "contains(%s,'%s')" t (escape_string v)
  | Has_child t -> t
  | Attr_eq (a, v) -> Printf.sprintf "@%s='%s'" a (escape_string v)
  | Position k -> string_of_int k
  | And (p, q) -> Printf.sprintf "(%s and %s)" (predicate_to_string p) (predicate_to_string q)
  | Or (p, q) -> Printf.sprintf "(%s or %s)" (predicate_to_string p) (predicate_to_string q)
  | Not p -> Printf.sprintf "not(%s)" (predicate_to_string p)

let step_to_string st =
  let axis = match st.axis with Child -> "/" | Descendant -> "//" in
  let test = match st.test with Any -> "*" | Tag t -> t in
  let preds =
    String.concat "" (List.map (fun p -> "[" ^ predicate_to_string p ^ "]") st.predicates)
  in
  axis ^ test ^ preds

let path_to_string steps = String.concat "" (List.map step_to_string steps)
let to_string t = String.concat " | " (List.map path_to_string t)
