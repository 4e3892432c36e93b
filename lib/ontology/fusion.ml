module Node = Toss_hierarchy.Node
module Hierarchy = Toss_hierarchy.Hierarchy
module Digraph = Toss_hierarchy.Digraph
module Nmap = Map.Make (Node)

(* The condensation runs over integer class ids. *)
module IG = Digraph.Make (struct
  type t = int

  let compare = Int.compare
end)

(* ψ: per source, each input node to the fused node absorbing it. *)
type witness = Node.t Nmap.t array

type error = Neq_violated of Interop.t | Unknown_source of Interop.t

type result = { fused : Hierarchy.t; witness : witness }

let pp_error ppf = function
  | Neq_violated c -> Format.fprintf ppf "constraint violated by fusion: %a" Interop.pp c
  | Unknown_source c -> Format.fprintf ppf "constraint references unknown source: %a" Interop.pp c

(* The node of source [i] containing [term]; a fresh singleton if the term
   is unknown to that hierarchy. *)
let node_of hs i term =
  match Hierarchy.nodes_of term hs.(i) with node :: _ -> node | [] -> Node.singleton term

(* Union-find with path halving; the smaller id becomes the root. *)
let rec find parent x =
  let p = parent.(x) in
  if p = x then x
  else begin
    parent.(x) <- parent.(p);
    find parent parent.(x)
  end

let union parent x y =
  let x = find parent x and y = find parent y in
  if x < y then parent.(y) <- x else if y < x then parent.(x) <- y

let fuse ?(auto_equate = true) hs constraints =
  let hs = Array.of_list hs in
  let n = Array.length hs in
  let constraints = Interop.expand constraints in
  let bad_source =
    List.find_opt
      (fun c ->
        let out { Interop.source; _ } = source < 0 || source >= n in
        match c with
        | Interop.Leq (a, b) | Interop.Eq (a, b) | Interop.Neq (a, b) -> out a || out b)
      constraints
  in
  match bad_source with
  | Some c -> Error (Unknown_source c)
  | None ->
      (* 1. Vertices: one id per (source, node) pair, plus a fresh
         singleton for each [Leq] endpoint its source does not know.
         Edges: the sources' Hasse edges and the [Leq] constraints. *)
      let ids = Array.make n Nmap.empty in
      let nodes = ref [] and count = ref 0 in
      let vertex i node =
        match Nmap.find_opt node ids.(i) with
        | Some v -> v
        | None ->
            let v = !count in
            incr count;
            ids.(i) <- Nmap.add node v ids.(i);
            nodes := node :: !nodes;
            v
      in
      let term_vertex { Interop.source; term } = vertex source (node_of hs source term) in
      Array.iteri
        (fun i h -> List.iter (fun node -> ignore (vertex i node)) (Hierarchy.nodes h))
        hs;
      let edges =
        List.concat
          (List.mapi
             (fun i h ->
               List.map (fun (u, v) -> (vertex i u, vertex i v)) (Hierarchy.edges h))
             (Array.to_list hs))
      in
      let edges =
        List.fold_left
          (fun edges c ->
            match c with
            | Interop.Leq (a, b) -> (term_vertex a, term_vertex b) :: edges
            | Interop.Eq _ -> assert false (* removed by expand *)
            | Interop.Neq _ -> edges)
          edges constraints
      in
      let nodes = Array.of_list (List.rev !nodes) in
      (* 2. Contract the spelling classes. Under [auto_equate] every vertex
         holding a spelling is equated with every other one holding it, so
         each class lies inside one strongly connected component; a node's
         several terms tie their spellings' classes together. *)
      let parent = Array.init (Array.length nodes) Fun.id in
      if auto_equate then begin
        let holder = Hashtbl.create 256 in
        Array.iteri
          (fun v node ->
            List.iter
              (fun s ->
                match Hashtbl.find_opt holder s with
                | Some u -> union parent u v
                | None -> Hashtbl.add holder s v)
              (Node.strings node))
          nodes
      end;
      let cls v = find parent v in
      (* 3. Condense the class graph: each SCC becomes one fused node. *)
      let g = ref IG.empty in
      Array.iteri (fun v _ -> if cls v = v then g := IG.add_vertex v !g) nodes;
      List.iter (fun (u, v) -> g := IG.add_edge (cls u) (cls v) !g) edges;
      let components, inter_edges = IG.condensation !g in
      let component = Array.make (Array.length nodes) 0 in
      List.iteri (fun k comp -> List.iter (fun c -> component.(c) <- k) comp) components;
      let strings = Array.make (List.length components) [] in
      Array.iteri
        (fun v node ->
          let k = component.(cls v) in
          strings.(k) <- Node.strings node @ strings.(k))
        nodes;
      let fused_of = Array.map Node.of_list strings in
      let witness = Array.map (Nmap.map (fun v -> fused_of.(component.(cls v)))) ids in
      let fg =
        Array.fold_left
          (fun fg node -> Hierarchy.G.add_vertex node fg)
          Hierarchy.G.empty fused_of
      in
      let fg =
        List.fold_left
          (fun fg (u, v) ->
            Hierarchy.G.add_edge fused_of.(component.(u)) fused_of.(component.(v)) fg)
          fg inter_edges
      in
      let fused = Hierarchy.normalize (Hierarchy.of_graph fg) in
      (* 4. Neq constraints. *)
      let psi_of { Interop.source; term } =
        Nmap.find_opt (node_of hs source term) witness.(source)
      in
      let violated =
        List.find_opt
          (fun c ->
            match c with
            | Interop.Neq (a, b) -> (
                match (psi_of a, psi_of b) with
                | Some na, Some nb -> Node.equal na nb
                | _ -> false)
            | Interop.Leq _ | Interop.Eq _ -> false)
          constraints
      in
      (match violated with
      | Some c -> Error (Neq_violated c)
      | None -> Ok { fused; witness })

let psi witness ~source node =
  if source < 0 || source >= Array.length witness then None
  else Nmap.find_opt node witness.(source)

let psi_term witness ~source term =
  if source < 0 || source >= Array.length witness then None
  else
    Nmap.fold
      (fun node fused acc ->
        match acc with
        | Some _ -> acc
        | None -> if Node.mem term node then Some fused else None)
      witness.(source) None

let fuse_ontologies ?auto_equate ontologies constraints_by_relation =
  let relations =
    List.sort_uniq String.compare (List.concat_map Ontology.relations ontologies)
  in
  List.fold_left
    (fun acc rel ->
      match acc with
      | Error _ -> acc
      | Ok fused_ontology -> (
          let hs = List.map (Ontology.get rel) ontologies in
          let cs = Option.value ~default:[] (List.assoc_opt rel constraints_by_relation) in
          match fuse ?auto_equate hs cs with
          | Ok { fused; _ } -> Ok (Ontology.add rel fused fused_ontology)
          | Error e -> Error (rel, e)))
    (Ok Ontology.empty) relations

let check_integration hs constraints { fused; witness } =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  (* Axiom 1: input orderings are preserved. *)
  List.iteri
    (fun i h ->
      List.iter
        (fun x ->
          List.iter
            (fun y ->
              if Hierarchy.node_leq h x y then begin
                match (psi witness ~source:i x, psi witness ~source:i y) with
                | Some fx, Some fy ->
                    if not (Hierarchy.node_leq fused fx fy) then
                      err "axiom 1: %a <= %a in source %d not preserved" Node.pp x
                        Node.pp y i
                | _ -> err "axiom 1: source %d node unmapped" i
              end)
            (Hierarchy.nodes h))
        (Hierarchy.nodes h))
    hs;
  (* Axiom 2: Leq constraints hold in the fusion. *)
  List.iter
    (fun c ->
      match c with
      | Interop.Leq (a, b) -> (
          match
            ( psi_term witness ~source:a.Interop.source a.Interop.term,
              psi_term witness ~source:b.Interop.source b.Interop.term )
          with
          | Some fa, Some fb ->
              if not (Hierarchy.node_leq fused fa fb) then
                err "axiom 2: %a not honoured" Interop.pp c
          | _ -> err "axiom 2: %a references unmapped term" Interop.pp c)
      | Interop.Eq _ | Interop.Neq _ -> ())
    (Interop.expand constraints);
  match !errors with [] -> Ok () | es -> Error (List.rev es)
