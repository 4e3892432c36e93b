module G = Digraph.Make (Node)
module Smap = Map.Make (String)

(* [index] maps each term to the nodes containing it; it is derived data
   kept in sync with the graph by the constructors below. *)
type t = { graph : G.t; index : Node.t list Smap.t }

let empty = { graph = G.empty; index = Smap.empty }

let index_node node index =
  List.fold_left
    (fun index s ->
      let present = Option.value ~default:[] (Smap.find_opt s index) in
      if List.exists (Node.equal node) present then index
      else Smap.add s (node :: present) index)
    index (Node.strings node)

let add_node node t =
  if G.mem_vertex node t.graph then t
  else { graph = G.add_vertex node t.graph; index = index_node node t.index }

let nodes_of term t = Option.value ~default:[] (Smap.find_opt term t.index)

let add_term term t =
  match nodes_of term t with [] -> add_node (Node.singleton term) t | _ -> t

let add_edge u v t =
  let t = add_node u (add_node v t) in
  { t with graph = G.add_edge u v t.graph }

let resolve term t =
  match nodes_of term t with
  | [] -> Node.singleton term
  | n :: _ -> n

let add_leq ~lower ~upper t =
  let lo = resolve lower t in
  let hi = resolve upper t in
  add_edge lo hi t

let nodes t = G.vertices t.graph
let edges t = G.edges t.graph
let terms t = List.map fst (Smap.bindings t.index)
let n_nodes t = G.n_vertices t.graph
let n_edges t = G.n_edges t.graph
let mem_term term t = Smap.mem term t.index
let graph t = t.graph

let of_graph graph =
  let index = G.fold_vertices index_node graph Smap.empty in
  { graph; index }

let node_leq t a b = G.has_path a b t.graph

let leq t a b =
  List.exists
    (fun na -> List.exists (fun nb -> node_leq t na nb) (nodes_of b t))
    (nodes_of a t)

let below term t =
  let targets = nodes_of term t in
  G.fold_vertices
    (fun v acc ->
      if List.exists (fun n -> G.has_path v n t.graph) targets then
        Node.strings v @ acc
      else acc)
    t.graph []
  |> List.sort_uniq String.compare

let merge_terms a b t =
  let t = add_term a (add_term b t) in
  let na = resolve a t and nb = resolve b t in
  if Node.equal na nb then t
  else begin
    let merged = Node.union na nb in
    let graph =
      G.map_vertices
        (fun v -> if Node.equal v na || Node.equal v nb then merged else v)
        t.graph
    in
    (* map_vertices can leave a self-loop when na and nb were adjacent. *)
    let graph = G.remove_edge merged merged graph in
    of_graph graph
  end

let to_dot ?(name = "hierarchy") t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "digraph %S {\n  rankdir=BT;\n  node [shape=box];\n" name);
  let id_of = Hashtbl.create 32 in
  List.iteri
    (fun i node ->
      Hashtbl.replace id_of (Node.to_string node) i;
      let label =
        String.concat "\\n" (Node.strings node)
        |> String.map (fun c -> if c = '"' then '\'' else c)
      in
      Buffer.add_string buf (Printf.sprintf "  n%d [label=\"%s\"];\n" i label))
    (nodes t);
  List.iter
    (fun (u, v) ->
      Buffer.add_string buf
        (Printf.sprintf "  n%d -> n%d;\n"
           (Hashtbl.find id_of (Node.to_string u))
           (Hashtbl.find id_of (Node.to_string v))))
    (edges t);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let normalize t =
  try { t with graph = G.transitive_reduction t.graph }
  with Invalid_argument _ -> invalid_arg "Hierarchy.normalize: cyclic diagram"

let is_consistent t = G.is_acyclic t.graph

let of_pairs pairs =
  let t =
    List.fold_left (fun t (lower, upper) -> add_leq ~lower ~upper t) empty pairs
  in
  if not (is_consistent t) then invalid_arg "Hierarchy.of_pairs: cyclic ordering";
  normalize t

let equal a b =
  let sorted_nodes t = List.sort Node.compare (nodes t) in
  let sorted_edges t = List.sort compare (edges t) in
  sorted_nodes a = sorted_nodes b && sorted_edges a = sorted_edges b
