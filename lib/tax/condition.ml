module Doc = Toss_xml.Tree.Doc

type term = Tag of int | Content of int | Str of string

type cmp = Eq | Neq | Le | Ge | Lt | Gt

type t =
  | True
  | Cmp of term * cmp * term
  | Contains of term * string
  | Sim of term * term
  | Isa of term * term
  | Part_of of term * term
  | Instance_of of term * term
  | Subtype_of of term * term
  | Below of term * term
  | Above of term * term
  | And of t * t
  | Or of t * t
  | Not of t

let conj = function [] -> True | c :: cs -> List.fold_left (fun a b -> And (a, b)) c cs
let disj = function [] -> Not True | c :: cs -> List.fold_left (fun a b -> Or (a, b)) c cs
let tag_eq i s = Cmp (Tag i, Eq, Str s)
let content_sim i s = Sim (Content i, Str s)
let content_isa i s = Isa (Content i, Str s)

type env = int -> (Doc.t * Doc.node) option

let term_value env = function
  | Str s -> Some s
  | Tag i -> Option.map (fun (d, n) -> Doc.tag d n) (env i)
  | Content i -> Option.map (fun (d, n) -> Doc.content d n) (env i)

let compare_values cmp a b =
  let order =
    match (float_of_string_opt a, float_of_string_opt b) with
    | Some x, Some y -> Float.compare x y
    | _ -> String.compare a b
  in
  match cmp with
  | Eq -> order = 0
  | Neq -> order <> 0
  | Le -> order <= 0
  | Ge -> order >= 0
  | Lt -> order < 0
  | Gt -> order > 0

let contains ~needle haystack =
  let nh = String.length haystack and nn = String.length needle in
  if nn = 0 then true
  else
    let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
    go 0

let rec eval_tax env c =
  let value t = term_value env t in
  let binary f x y = match (value x, value y) with Some a, Some b -> f a b | _ -> false in
  match c with
  | True -> true
  | Cmp (x, cmp, y) -> binary (compare_values cmp) x y
  | Contains (x, s) -> ( match value x with Some a -> contains ~needle:s a | None -> false)
  | Sim (x, y) -> binary String.equal x y
  | Isa (x, y) | Part_of (x, y) | Instance_of (x, y) | Subtype_of (x, y)
  | Below (x, y) | Above (x, y) ->
      binary (fun a b -> contains ~needle:b a) x y
  | And (p, q) -> eval_tax env p && eval_tax env q
  | Or (p, q) -> eval_tax env p || eval_tax env q
  | Not p -> not (eval_tax env p)

let term_labels = function Tag i | Content i -> [ i ] | Str _ -> []

let rec labels_used = function
  | True -> []
  | Cmp (x, _, y) | Sim (x, y) | Isa (x, y) | Part_of (x, y) | Instance_of (x, y)
  | Subtype_of (x, y) | Below (x, y) | Above (x, y) ->
      term_labels x @ term_labels y
  | Contains (x, _) -> term_labels x
  | And (p, q) | Or (p, q) -> labels_used p @ labels_used q
  | Not p -> labels_used p

let rec atoms = function
  | True -> []
  | And (p, q) | Or (p, q) -> atoms p @ atoms q
  | Not p -> atoms p
  | atom -> [ atom ]

let rec top_conjuncts = function
  | And (p, q) -> top_conjuncts p @ top_conjuncts q
  | c -> [ c ]

let local_atoms c label =
  List.filter
    (fun conjunct ->
      match conjunct with
      | And _ -> assert false (* flattened by top_conjuncts *)
      | Or _ | Not _ | True -> false
      | atom -> labels_used atom = [ label ] || labels_used atom = [ label; label ])
    (top_conjuncts c)

let pp_term ppf = function
  | Tag i -> Format.fprintf ppf "#%d.tag" i
  | Content i -> Format.fprintf ppf "#%d.content" i
  | Str s -> Format.fprintf ppf "%S" s

let cmp_symbol = function
  | Eq -> "=" | Neq -> "!=" | Le -> "<=" | Ge -> ">=" | Lt -> "<" | Gt -> ">"

let rec pp ppf = function
  | True -> Format.pp_print_string ppf "true"
  | Cmp (x, c, y) -> Format.fprintf ppf "%a %s %a" pp_term x (cmp_symbol c) pp_term y
  | Contains (x, s) -> Format.fprintf ppf "contains(%a, %S)" pp_term x s
  | Sim (x, y) -> Format.fprintf ppf "%a ~ %a" pp_term x pp_term y
  | Isa (x, y) -> Format.fprintf ppf "%a isa %a" pp_term x pp_term y
  | Part_of (x, y) -> Format.fprintf ppf "%a part_of %a" pp_term x pp_term y
  | Instance_of (x, y) -> Format.fprintf ppf "%a instance_of %a" pp_term x pp_term y
  | Subtype_of (x, y) -> Format.fprintf ppf "%a subtype_of %a" pp_term x pp_term y
  | Below (x, y) -> Format.fprintf ppf "%a below %a" pp_term x pp_term y
  | Above (x, y) -> Format.fprintf ppf "%a above %a" pp_term x pp_term y
  | And (p, q) -> Format.fprintf ppf "(%a and %a)" pp p pp q
  | Or (p, q) -> Format.fprintf ppf "(%a or %a)" pp p pp q
  | Not p -> Format.fprintf ppf "not(%a)" pp p
