module G = Digraph.Make (Node)
module Smap = Map.Make (String)

(* [index] maps each term to the nodes containing it; it is derived data
   kept in sync with the graph by the constructors below. *)
type t = { graph : G.t; index : Node.t list Smap.t }

let empty = { graph = G.empty; index = Smap.empty }
let is_empty t = G.is_empty t.graph

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

let above term t =
  List.concat_map
    (fun n -> G.Vset.fold (fun v acc -> Node.strings v @ acc) (G.reachable n t.graph) [])
    (nodes_of term t)
  |> List.sort_uniq String.compare

let upper_bounds t a b =
  let ups term =
    List.fold_left
      (fun acc n -> G.Vset.union acc (G.reachable n t.graph))
      G.Vset.empty (nodes_of term t)
  in
  let common = G.Vset.inter (ups a) (ups b) in
  (* Keep the minimal elements: those with no other common upper bound
     strictly below them. *)
  G.Vset.elements common
  |> List.filter (fun n ->
         not
           (G.Vset.exists
              (fun m -> (not (Node.equal m n)) && G.has_path m n t.graph)
              common))

let least_upper_bound t a b =
  match upper_bounds t a b with [ n ] -> Some n | _ -> None

let roots t = List.filter (fun n -> G.Vset.is_empty (G.succs n t.graph)) (nodes t)
let leaves t = List.filter (fun n -> G.Vset.is_empty (G.preds n t.graph)) (nodes t)

let lower_bounds t a b =
  let downs term =
    let targets = nodes_of term t in
    G.fold_vertices
      (fun v acc ->
        if List.exists (fun n -> G.has_path v n t.graph) targets then G.Vset.add v acc
        else acc)
      t.graph G.Vset.empty
  in
  let common = G.Vset.inter (downs a) (downs b) in
  (* Keep the maximal elements: those not strictly below another common
     lower bound. *)
  G.Vset.elements common
  |> List.filter (fun n ->
         not
           (G.Vset.exists
              (fun m -> (not (Node.equal m n)) && G.has_path n m t.graph)
              common))

let greatest_lower_bound t a b =
  match lower_bounds t a b with [ n ] -> Some n | _ -> None

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

let remove_term term t =
  match nodes_of term t with
  | [] -> t
  | nodes ->
      let graph =
        List.fold_left
          (fun graph node ->
            match Node.strings node with
            | [ _ ] ->
                (* Singleton: bridge predecessors to successors. *)
                let preds = G.preds node graph and succs = G.succs node graph in
                let graph = G.remove_vertex node graph in
                G.Vset.fold
                  (fun p graph ->
                    G.Vset.fold (fun s graph -> G.add_edge p s graph) succs graph)
                  preds graph
            | members ->
                let shrunk = Node.of_list (List.filter (( <> ) term) members) in
                G.map_vertices
                  (fun v -> if Node.equal v node then shrunk else v)
                  graph)
          t.graph nodes
      in
      of_graph graph

let depth t node =
  if not (G.mem_vertex node t.graph) then
    invalid_arg "Hierarchy.depth: unknown node";
  match G.topological_sort t.graph with
  | None -> invalid_arg "Hierarchy.depth: cyclic diagram"
  | Some order ->
      (* Edges point upward, so depth(n) = 1 + max over successors. *)
      let depths = Hashtbl.create 32 in
      List.iter
        (fun v ->
          let d =
            G.Vset.fold
              (fun succ acc -> max acc (1 + Hashtbl.find depths succ))
              (G.succs v t.graph) 0
          in
          Hashtbl.replace depths v d)
        (List.rev order);
      Hashtbl.find depths node

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

let pp ppf t =
  Format.fprintf ppf "@[<v>hierarchy (%d nodes, %d edges)@,%a@]" (n_nodes t)
    (n_edges t) G.pp t.graph
