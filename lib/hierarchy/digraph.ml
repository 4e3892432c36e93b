module type VERTEX = sig
  type t

  val compare : t -> t -> int
end

module type S = sig
  type vertex
  type t

  module Vset : Set.S with type elt = vertex
  module Vmap : Map.S with type key = vertex

  val empty : t
  val add_vertex : vertex -> t -> t
  val add_edge : vertex -> vertex -> t -> t
  val remove_edge : vertex -> vertex -> t -> t
  val mem_vertex : vertex -> t -> bool
  val mem_edge : vertex -> vertex -> t -> bool
  val vertices : t -> vertex list
  val edges : t -> (vertex * vertex) list
  val n_vertices : t -> int
  val n_edges : t -> int
  val fold_vertices : (vertex -> 'a -> 'a) -> t -> 'a -> 'a
  val map_vertices : (vertex -> vertex) -> t -> t
  val has_path : vertex -> vertex -> t -> bool
  val is_acyclic : t -> bool
  val topological_sort : t -> vertex list option
  val condensation : t -> vertex list list * (vertex * vertex) list
  val transitive_reduction : t -> t
end

module Make (V : VERTEX) : S with type vertex = V.t = struct
  type vertex = V.t

  module Vset = Set.Make (V)
  module Vmap = Map.Make (V)

  (* Invariant: every vertex appearing in an adjacency set of [succ] or
     [pred] is also a key of both maps; [pred] mirrors [succ] exactly. *)
  type t = { succ : Vset.t Vmap.t; pred : Vset.t Vmap.t }

  let empty = { succ = Vmap.empty; pred = Vmap.empty }

  let adjacency v m = match Vmap.find_opt v m with Some s -> s | None -> Vset.empty

  let add_vertex v g =
    if Vmap.mem v g.succ then g
    else { succ = Vmap.add v Vset.empty g.succ; pred = Vmap.add v Vset.empty g.pred }

  let add_edge u v g =
    let g = add_vertex u (add_vertex v g) in
    {
      succ = Vmap.add u (Vset.add v (adjacency u g.succ)) g.succ;
      pred = Vmap.add v (Vset.add u (adjacency v g.pred)) g.pred;
    }

  let remove_edge u v g =
    {
      succ = Vmap.update u (Option.map (Vset.remove v)) g.succ;
      pred = Vmap.update v (Option.map (Vset.remove u)) g.pred;
    }

  let mem_vertex v g = Vmap.mem v g.succ
  let mem_edge u v g = Vset.mem v (adjacency u g.succ)
  let vertices g = List.map fst (Vmap.bindings g.succ)

  let edges g =
    Vmap.fold (fun u vs acc -> Vset.fold (fun v acc -> (u, v) :: acc) vs acc) g.succ []
    |> List.rev

  let succs v g = adjacency v g.succ
  let n_vertices g = Vmap.cardinal g.succ
  let n_edges g = Vmap.fold (fun _ vs n -> n + Vset.cardinal vs) g.succ 0
  let fold_vertices f g acc = Vmap.fold (fun v _ acc -> f v acc) g.succ acc
  let fold_edges f g acc = List.fold_left (fun acc (u, v) -> f u v acc) acc (edges g)

  let map_vertices f g =
    let g' = fold_vertices (fun v acc -> add_vertex (f v) acc) g empty in
    fold_edges (fun u v acc -> add_edge (f u) (f v) acc) g g'

  let reachable start g =
    if not (mem_vertex start g) then Vset.empty
    else
      let rec visit seen v =
        if Vset.mem v seen then seen
        else Vset.fold (fun w seen -> visit seen w) (succs v g) (Vset.add v seen)
      in
      visit Vset.empty start

  let has_path u v g = Vset.mem v (reachable u g)

  (* Kahn's algorithm; also used as the acyclicity test. *)
  let topological_sort g =
    let in_deg = ref (Vmap.map Vset.cardinal g.pred) in
    let queue = Queue.create () in
    Vmap.iter (fun v d -> if d = 0 then Queue.add v queue) !in_deg;
    let order = ref [] in
    let count = ref 0 in
    while not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      incr count;
      order := v :: !order;
      Vset.iter
        (fun w ->
          let d = Vmap.find w !in_deg - 1 in
          in_deg := Vmap.add w d !in_deg;
          if d = 0 then Queue.add w queue)
        (succs v g)
    done;
    if !count = n_vertices g then Some (List.rev !order) else None

  let is_acyclic g = Option.is_some (topological_sort g)

  let scc g =
    (* Tarjan's algorithm. *)
    let index = ref 0 in
    let stack = ref [] in
    let components = ref [] in
    let idx = ref Vmap.empty in
    let low = ref Vmap.empty in
    let onstk = ref Vset.empty in
    let rec strongconnect v =
      idx := Vmap.add v !index !idx;
      low := Vmap.add v !index !low;
      incr index;
      stack := v :: !stack;
      onstk := Vset.add v !onstk;
      Vset.iter
        (fun w ->
          match Vmap.find_opt w !idx with
          | None ->
              strongconnect w;
              low := Vmap.add v (min (Vmap.find v !low) (Vmap.find w !low)) !low
          | Some wi ->
              if Vset.mem w !onstk then
                low := Vmap.add v (min (Vmap.find v !low) wi) !low)
        (succs v g);
      if Vmap.find v !low = Vmap.find v !idx then begin
        let rec pop acc =
          match !stack with
          | [] -> acc
          | w :: rest ->
              stack := rest;
              onstk := Vset.remove w !onstk;
              if V.compare w v = 0 then w :: acc else pop (w :: acc)
        in
        components := pop [] :: !components
      end
    in
    List.iter (fun v -> if not (Vmap.mem v !idx) then strongconnect v) (vertices g);
    List.rev !components

  let condensation g =
    let comps = scc g in
    let comp_of = ref Vmap.empty in
    List.iteri (fun i comp -> List.iter (fun v -> comp_of := Vmap.add v i !comp_of) comp) comps;
    let comp_arr = Array.of_list comps in
    let seen = Hashtbl.create 97 in
    let inter_edges =
      fold_edges
        (fun u v acc ->
          let cu = Vmap.find u !comp_of and cv = Vmap.find v !comp_of in
          if cu = cv || Hashtbl.mem seen (cu, cv) then acc
          else begin
            Hashtbl.add seen (cu, cv) ();
            (List.hd comp_arr.(cu), List.hd comp_arr.(cv)) :: acc
          end)
        g []
    in
    (comps, inter_edges)

  let transitive_reduction g =
    if not (is_acyclic g) then
      invalid_arg "Digraph.transitive_reduction: graph has a cycle";
    (* An edge (u, v) is redundant iff some other successor of u reaches v. *)
    let reach = fold_vertices (fun v acc -> Vmap.add v (reachable v g) acc) g Vmap.empty in
    fold_edges
      (fun u v acc ->
        let redundant =
          Vset.exists
            (fun w -> V.compare w v <> 0 && Vset.mem v (Vmap.find w reach))
            (succs u g)
        in
        if redundant then remove_edge u v acc else acc)
      g g
end
