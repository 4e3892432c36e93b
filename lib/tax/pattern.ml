type edge_kind = Pc | Ad

type node = { label : int; children : (edge_kind * node) list }

type t = { root : node; condition : Condition.t }

let node label children = { label; children }
let leaf label = { label; children = [] }
let pc n = (Pc, n)
let ad n = (Ad, n)

let rec node_labels n = n.label :: List.concat_map (fun (_, c) -> node_labels c) n.children

let v root condition =
  let labels = node_labels root in
  let distinct = List.sort_uniq Int.compare labels in
  if List.length distinct <> List.length labels then
    invalid_arg "Pattern.v: node labels must be distinct";
  { root; condition }

let labels t = node_labels t.root
