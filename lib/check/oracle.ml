module Tree = Toss_xml.Tree
module Doc = Tree.Doc
module Pattern = Toss_tax.Pattern
module Condition = Toss_tax.Condition
module Witness = Toss_tax.Witness
module Algebra = Toss_tax.Algebra

(* The reference evaluator: selections and joins straight from the TAX
   embedding semantics (Definition 3), with none of the engine's
   machinery — no rewriting, no store queries, no index, no planner, no
   candidate prefilters, no hash partitioning. Every total map from
   pattern labels to document nodes is enumerated and checked against
   the structural constraints and then the full condition. Exponential
   in the pattern size by design: it is only ever run on the tiny
   corpora the generator produces, and its value is exactly that it
   shares no code path with the executor it judges. *)

(* All structural embeddings of [pattern]'s node tree into [doc]:
   pc edges must map to parent-child pairs, ad edges to strict
   ancestor-descendant pairs. [root_images] restricts the root's image
   (used by the join oracle to pin a pc side to the document root).
   Bindings come out in pattern-preorder label order. *)
let structural_maps ?root_images doc (pattern : Pattern.t) =
  let all = Doc.nodes doc in
  let rec assign binding (pnode : Pattern.node) image =
    let binding = (pnode.Pattern.label, image) :: binding in
    List.fold_left
      (fun partials (kind, child) ->
        let ok n =
          match (kind : Pattern.edge_kind) with
          | Pattern.Pc -> Doc.is_child doc ~parent:image ~child:n
          | Pattern.Ad -> Doc.is_descendant doc ~anc:image ~desc:n
        in
        let options = List.filter ok all in
        List.concat_map
          (fun b -> List.concat_map (assign b child) options)
          partials)
      [ binding ]
      pnode.Pattern.children
  in
  let roots = match root_images with Some nodes -> nodes | None -> all in
  List.concat_map (assign [] pattern.Pattern.root) roots
  |> List.map List.rev

let env_of doc binding label =
  Option.map (fun n -> (doc, n)) (List.assoc_opt label binding)

let dedup trees =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun t ->
      if Hashtbl.mem seen t then false
      else begin
        Hashtbl.replace seen t ();
        true
      end)
    trees

let select ~eval ~pattern ~sl docs =
  let n_embeddings = ref 0 in
  let results =
    List.concat_map
      (fun doc ->
        let sat =
          List.filter
            (fun b -> eval (env_of doc b) pattern.Pattern.condition)
            (structural_maps doc pattern)
        in
        n_embeddings := !n_embeddings + List.length sat;
        (* Set semantics per document: identical witnesses from distinct
           documents are distinct results, as in TAX. *)
        dedup (List.map (fun b -> Witness.of_binding doc b ~sl) sat))
      docs
  in
  (results, !n_embeddings)

let rec subtree_labels (n : Pattern.node) =
  n.Pattern.label :: List.concat_map (fun (_, c) -> subtree_labels c) n.Pattern.children

let join ~eval ~pattern ~sl left_docs right_docs =
  let root = pattern.Pattern.root in
  let (lkind, lchild), (rkind, rchild) =
    match root.Pattern.children with
    | [ l; r ] -> (l, r)
    | _ -> invalid_arg "Oracle.join: the pattern root must have exactly two children"
  in
  let root_label = root.Pattern.label in
  (* Conjuncts mentioning the synthetic product root hold by construction
     of the result and are dropped — the executor's documented contract. *)
  let cross =
    Condition.conj
      (List.filter
         (fun c -> not (List.mem root_label (Condition.labels_used c)))
         (Condition.top_conjuncts pattern.Pattern.condition))
  in
  let side kind child docs =
    let sub = Pattern.v child Condition.True in
    let sl = List.filter (fun l -> List.mem l (subtree_labels child)) sl in
    List.concat_map
      (fun doc ->
        let root_images =
          (* A pc edge from the product root pins the side to the
             document root; an ad edge lets it match anywhere. *)
          match (kind : Pattern.edge_kind) with
          | Pattern.Pc -> Some [ Doc.root doc ]
          | Pattern.Ad -> None
        in
        List.map (fun b -> (doc, b)) (structural_maps ?root_images doc sub))
      docs
    |> fun maps -> (maps, sl)
  in
  let lefts, left_sl = side lkind lchild left_docs in
  let rights, right_sl = side rkind rchild right_docs in
  let pair_env (ldoc, lbind) (rdoc, rbind) label =
    match List.assoc_opt label lbind with
    | Some n -> Some (ldoc, n)
    | None -> Option.map (fun n -> (rdoc, n)) (List.assoc_opt label rbind)
  in
  List.concat_map
    (fun ((ldoc, lbind) as l) ->
      List.filter_map
        (fun ((rdoc, rbind) as r) ->
          if eval (pair_env l r) cross then
            Some
              (Tree.element Algebra.prod_root_tag
                 [
                   Witness.of_binding ldoc lbind ~sl:left_sl;
                   Witness.of_binding rdoc rbind ~sl:right_sl;
                 ])
          else None)
        rights)
    lefts
  |> dedup

(* ------------------------------------------------------------------ *)
(* The reference SEO build                                              *)
(* ------------------------------------------------------------------ *)

module Node = Toss_hierarchy.Node
module Hierarchy = Toss_hierarchy.Hierarchy
module Digraph = Toss_hierarchy.Digraph
module Interop = Toss_ontology.Interop
module Ontology = Toss_ontology.Ontology
module Lexicon = Toss_ontology.Lexicon
module Fusion = Toss_ontology.Fusion

(* The SEO pipeline as first written, kept as the reference the engine's
   build is checked against: one synonym constraint per pair of term
   occurrences in different sources, and canonical fusion over a graph
   with one vertex per (source, hierarchy node) pair. Quadratic in the
   number of term occurrences. *)

let auto_constraints ?(lexicon = Lexicon.seeded) ontologies =
  let indexed = List.mapi (fun i o -> (i, o)) ontologies in
  let relations =
    List.sort_uniq String.compare (List.concat_map Ontology.relations ontologies)
  in
  List.map
    (fun rel ->
      let term_sources =
        List.concat_map
          (fun (i, o) ->
            List.map (fun t -> (t, i)) (Hierarchy.terms (Ontology.get rel o)))
          indexed
      in
      let constraints =
        List.concat_map
          (fun (t1, i) ->
            let syns = Lexicon.synonyms lexicon t1 in
            List.filter_map
              (fun (t2, j) ->
                if i < j && t1 <> t2 && List.mem t2 syns then
                  Some (Interop.eq (t1, i) (t2, j))
                else None)
              term_sources)
          term_sources
      in
      (rel, constraints))
    relations

(* Source-qualified hierarchy nodes: the vertices of the hierarchy graph. *)
module Q = struct
  type t = { source : int; node : Node.t }

  let compare a b =
    match Int.compare a.source b.source with
    | 0 -> Node.compare a.node b.node
    | c -> c
end

module QG = Digraph.Make (Q)
module Qmap = Map.Make (Q)

type fusion = { fused : Hierarchy.t; psi : source:int -> Node.t -> Node.t option }

let vertex_of hs i term =
  match Hierarchy.nodes_of term (List.nth hs i) with
  | node :: _ -> { Q.source = i; node }
  | [] -> { Q.source = i; node = Node.singleton term }

let fuse ?(auto_equate = true) hs constraints =
  let n = List.length hs in
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
  | Some c -> Error (Fusion.Unknown_source c)
  | None ->
      (* 1. Hierarchy graph: per-source vertices and Hasse edges. *)
      let g =
        List.fold_left
          (fun g (i, h) ->
            let g =
              List.fold_left
                (fun g node -> QG.add_vertex { Q.source = i; node } g)
                g (Hierarchy.nodes h)
            in
            List.fold_left
              (fun g (u, v) ->
                QG.add_edge { Q.source = i; node = u } { Q.source = i; node = v } g)
              g (Hierarchy.edges h))
          QG.empty
          (List.mapi (fun i h -> (i, h)) hs)
      in
      (* 2. Constraint edges. *)
      let g =
        List.fold_left
          (fun g c ->
            match c with
            | Interop.Leq (a, b) ->
                QG.add_edge
                  (vertex_of hs a.Interop.source a.Interop.term)
                  (vertex_of hs b.Interop.source b.Interop.term)
                  g
            | Interop.Eq _ -> assert false (* removed by expand *)
            | Interop.Neq _ -> g)
          g constraints
      in
      (* 3. Implicit equalities between identically-spelled terms. *)
      let g =
        if not auto_equate then g
        else begin
          let by_term = Hashtbl.create 97 in
          QG.fold_vertices
            (fun v () ->
              List.iter
                (fun s ->
                  Hashtbl.replace by_term s
                    (v :: Option.value ~default:[] (Hashtbl.find_opt by_term s)))
                (Node.strings v.Q.node))
            g ();
          Hashtbl.fold
            (fun _term vs g ->
              match vs with
              | [] | [ _ ] -> g
              | first :: rest ->
                  List.fold_left
                    (fun g v -> QG.add_edge first v (QG.add_edge v first g))
                    g rest)
            by_term g
        end
      in
      (* 4. Condense: each SCC becomes one fused node. *)
      let components, inter_edges = QG.condensation g in
      let fused_node_of_component comp =
        Node.of_list (List.concat_map (fun v -> Node.strings v.Q.node) comp)
      in
      let witness =
        List.fold_left
          (fun w comp ->
            let fused = fused_node_of_component comp in
            List.fold_left (fun w v -> Qmap.add v fused w) w comp)
          Qmap.empty components
      in
      let fg =
        List.fold_left
          (fun fg comp -> Hierarchy.G.add_vertex (fused_node_of_component comp) fg)
          Hierarchy.G.empty components
      in
      let fg =
        List.fold_left
          (fun fg (u, v) ->
            Hierarchy.G.add_edge (Qmap.find u witness) (Qmap.find v witness) fg)
          fg inter_edges
      in
      let fused = Hierarchy.normalize (Hierarchy.of_graph fg) in
      (* 5. Neq constraints. *)
      let violated =
        List.find_opt
          (fun c ->
            match c with
            | Interop.Neq (a, b) ->
                let na = Qmap.find_opt (vertex_of hs a.Interop.source a.Interop.term) witness in
                let nb = Qmap.find_opt (vertex_of hs b.Interop.source b.Interop.term) witness in
                (match (na, nb) with
                | Some na, Some nb -> Node.equal na nb
                | _ -> false)
            | Interop.Leq _ | Interop.Eq _ -> false)
          constraints
      in
      (match violated with
      | Some c -> Error (Fusion.Neq_violated c)
      | None ->
          let psi ~source node = Qmap.find_opt { Q.source; node } witness in
          Ok { fused; psi })

let fuse_ontologies ontologies constraints_by_relation =
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
          match fuse hs cs with
          | Ok { fused; _ } -> Ok (Ontology.add rel fused fused_ontology)
          | Error e -> Error (rel, e)))
    (Ok Ontology.empty) relations

let seo_of_documents ?metric ?eps ?lexicon docs =
  let ontologies = Toss_ontology.Maker.make_all ?lexicon docs in
  match fuse_ontologies ontologies (auto_constraints ?lexicon ontologies) with
  | Error (rel, e) ->
      Error (Format.asprintf "fusion failed on relation %s: %a" rel Fusion.pp_error e)
  | Ok fused -> Toss_core.Seo.create ?metric ?eps fused
