module Tree = Toss_xml.Tree
module Printer = Toss_xml.Printer
module Hierarchy = Toss_hierarchy.Hierarchy
module Levenshtein = Toss_similarity.Levenshtein
module Ontology = Toss_ontology.Ontology
module Pattern = Toss_tax.Pattern
module Condition = Toss_tax.Condition
module Seo = Toss_core.Seo

type op = Select | Join

type case = {
  seed : int;
  op : op;
  docs : Tree.t list;
  right_docs : Tree.t list;  (** empty for selections *)
  isa_edges : (string * string) list;
  part_edges : (string * string) list;
  eps : float;
  pattern : Pattern.t;
  sl : int list;
}

(* ----------------------------- pools ------------------------------ *)

(* Small pools on purpose: collisions between document values, ontology
   terms and query constants are what make every predicate reachable.
   The near-miss spellings (model/models, vldb/vld) sit within small
   Levenshtein distance of each other to exercise both the SEA clusters
   and the raw-distance fallback for unknown pairs; the numerals include
   pairs that are textually different but numerically equal ("7"/"7.0",
   "42"/"0042") to exercise the numeric-equality semantics the rewriter
   must not push as exact text. *)
let tag_pool = [ "article"; "paper"; "book"; "note"; "item"; "venue" ]

let word_pool =
  [ "model"; "models"; "relation"; "relational"; "database"; "databases";
    "vldb"; "vld"; "survey" ]

let number_pool = [ "7"; "7.0"; "42"; "0042"; "1999"; "1999.0"; "2001"; "3.5" ]

let type_names = [ "int"; "float"; "year"; "string" ]

(* Terms eligible to appear in the generated ontology, in a fixed order:
   edges only ever point from a lower index to a strictly higher one, so
   any edge subset is acyclic by construction (and stays so under the
   shrinker's edge dropping). *)
let ontology_terms =
  tag_pool @ word_pool @ [ "publication"; "thing"; "1999"; "42" ]

let constant_pool = tag_pool @ word_pool @ number_pool @ [ "publication"; "thing" ]

(* Near-miss spellings straddling the generated ε values (0, 1, 2): the
   word pool's distance-1 and distance-2 pairs plus two misspellings kept
   out of [ontology_terms] — always unknown to the hierarchy — so
   similarity-join cases exercise both the cluster signatures and the
   metric-fallback bucket of the sim-pair operator. *)
let near_miss_pool = word_pool @ [ "databse"; "modell" ]

(* ---------------------------- documents --------------------------- *)

let gen_content ?pool rng =
  match pool with
  | Some p -> Rng.pick rng p
  | None -> if Rng.bool rng then Rng.pick rng word_pool else Rng.pick rng number_pool

let gen_attrs rng =
  if Rng.chance rng 20 then [ ("k", Rng.pick rng word_pool) ] else []

(* What a case's condition names: the tags its tag equalities pin, and
   the pool a list member's leaf text draws from — the case's pool plus,
   once, the constants the condition's atoms compare against. Documents
   are drawn after the condition, so their lists can collide with both. *)
type focus = { tags : string list; list_pool : string list option }

let focus_of ?pool condition =
  let tags, values =
    List.fold_right
      (fun atom (tags, values) ->
        match atom with
        | Condition.Cmp (Condition.Tag _, Condition.Eq, Condition.Str t) ->
            (t :: tags, values)
        | Condition.Cmp (_, _, Condition.Str v)
        | Condition.Sim (_, Condition.Str v)
        | Condition.Isa (_, Condition.Str v)
        | Condition.Part_of (_, Condition.Str v)
        | Condition.Instance_of (_, Condition.Str v)
        | Condition.Subtype_of (_, Condition.Str v)
        | Condition.Below (_, Condition.Str v)
        | Condition.Above (Condition.Str v, _)
        | Condition.Contains (_, v) ->
            (tags, v :: values)
        | _ -> (tags, values))
      (Condition.atoms condition) ([], [])
  in
  let list_pool =
    if values = [] then pool
    else Some (values @ Option.value pool ~default:(word_pool @ number_pool))
  in
  { tags; list_pool }

(* [item] is set for the members of a list: the tag they share and the
   pool a member's own leaf text draws from. Everything else — deeper
   elements, mixed-content text — draws from the case's [pool]. *)
let rec gen_element ?pool ?item rng ~focus ~depth ~budget =
  let tag, leaf_pool =
    match item with
    | Some (tag, leaf_pool) -> (tag, leaf_pool)
    | None -> (Rng.pick rng tag_pool, pool)
  in
  let attrs = gen_attrs rng in
  if depth >= 3 || !budget <= 1 || Rng.chance rng 40 then begin
    decr budget;
    let children =
      if Rng.chance rng 75 then [ Tree.text (gen_content ?pool:leaf_pool rng) ] else []
    in
    Tree.element ~attrs tag children
  end
  else begin
    decr budget;
    let n = 1 + Rng.int rng 3 in
    (* Mostly a list: children sharing one tag (one the condition pins,
       when it pins any), whose leaves may also hold the condition's
       constants, as a paper lists several authors. Siblings of one tag
       with different contents are what tell "some node of the tag
       passes" from "the first one does". *)
    let item =
      if Rng.chance rng 70 then
        Some
          ( Rng.pick rng (if focus.tags = [] then tag_pool else focus.tags),
            focus.list_pool )
      else None
    in
    let children = ref [] in
    for _ = 1 to n do
      if !budget > 0 then
        children :=
          gen_element ?pool ?item rng ~focus ~depth:(depth + 1) ~budget :: !children
    done;
    (* Occasional mixed content: a text node among element children. *)
    let children =
      if Rng.chance rng 15 then Tree.text (gen_content ?pool rng) :: !children
      else !children
    in
    Tree.element ~attrs tag (List.rev children)
  end

let gen_doc ?pool rng ~focus =
  let budget = ref (4 + Rng.int rng 9) in
  gen_element ?pool rng ~focus ~depth:0 ~budget

let gen_docs ?pool rng condition =
  let focus = focus_of ?pool condition in
  List.init (1 + Rng.int rng 3) (fun _ -> gen_doc ?pool rng ~focus)

(* ---------------------------- ontology ---------------------------- *)

let gen_edges rng ~max_edges terms =
  let arr = Array.of_list terms in
  let n = Array.length arr in
  List.init (Rng.int rng (max_edges + 1)) (fun _ ->
      let i = Rng.int rng (n - 1) in
      let j = i + 1 + Rng.int rng (n - i - 1) in
      (arr.(i), arr.(j)))
  |> List.sort_uniq compare

let seo_of case =
  let h pairs = Hierarchy.of_pairs pairs in
  Seo.create_exn ~metric:Levenshtein.metric ~eps:case.eps
    (Ontology.of_list
       [ (Ontology.isa, h case.isa_edges); (Ontology.part_of, h case.part_edges) ])

(* --------------------------- conditions --------------------------- *)

let cmps =
  [ Condition.Eq; Condition.Neq; Condition.Le; Condition.Ge; Condition.Lt;
    Condition.Gt ]

(* One atom over the given labels, drawing every predicate of the TOSS
   algebra. *)
let gen_atom rng labels =
  let l = Rng.pick rng labels in
  let node_term l = if Rng.chance rng 25 then Condition.Tag l else Condition.Content l in
  let term_or_type () =
    if Rng.chance rng 25 then Rng.pick rng type_names else Rng.pick rng constant_pool
  in
  match Rng.int rng 12 with
  | 0 -> Condition.Sim (Condition.Content l, Condition.Str (Rng.pick rng constant_pool))
  | 1 -> Condition.Isa (Condition.Content l, Condition.Str (Rng.pick rng constant_pool))
  | 2 -> Condition.Isa (Condition.Tag l, Condition.Str (Rng.pick rng constant_pool))
  | 3 -> Condition.Part_of (node_term l, Condition.Str (Rng.pick rng constant_pool))
  | 4 -> Condition.Instance_of (Condition.Content l, Condition.Str (term_or_type ()))
  | 5 -> Condition.Subtype_of (Condition.Content l, Condition.Str (Rng.pick rng constant_pool))
  | 6 -> Condition.Below (Condition.Content l, Condition.Str (term_or_type ()))
  | 7 -> Condition.Below (Condition.Tag l, Condition.Str (term_or_type ()))
  | 8 -> Condition.Above (Condition.Str (term_or_type ()), node_term l)
  | 9 ->
      Condition.Cmp
        ( Condition.Content l,
          Rng.pick rng cmps,
          Condition.Str
            (if Rng.chance rng 60 then Rng.pick rng number_pool
             else Rng.pick rng word_pool) )
  | 10 -> Condition.Contains (Condition.Content l, Rng.pick rng [ "data"; "model"; "19"; "a" ])
  | _ -> Condition.Cmp (Condition.Content l, Condition.Eq, Condition.Content (Rng.pick rng labels))

(* A top-level conjunct: usually an atom, sometimes a disjunction or a
   negation (neither of which the rewriter may push down). *)
let gen_conjunct rng labels =
  match Rng.int rng 10 with
  | 0 -> Condition.Or (gen_atom rng labels, gen_atom rng labels)
  | 1 -> Condition.Not (gen_atom rng labels)
  | _ -> gen_atom rng labels

let gen_condition rng labels ~extra =
  let anchors =
    List.filter_map
      (fun l ->
        if Rng.chance rng 55 then Some (Condition.tag_eq l (Rng.pick rng tag_pool))
        else None)
      labels
  in
  let extras = List.init extra (fun _ -> gen_conjunct rng labels) in
  Condition.conj (anchors @ extras)

let gen_sl rng labels = List.filter (fun _ -> Rng.chance rng 40) labels

(* ---------------------------- patterns ---------------------------- *)

let edge rng = if Rng.bool rng then Pattern.Pc else Pattern.Ad

(* A random pattern shape over the given labels: each label after the
   first attaches under a uniformly chosen earlier one. *)
let gen_shape rng = function
  | [] -> invalid_arg "gen_shape: no labels"
  | root :: rest ->
      let attach = Hashtbl.create 8 in
      List.fold_left
        (fun seen l ->
          let parent = Rng.pick rng seen in
          Hashtbl.replace attach parent
            ((edge rng, l)
            :: Option.value ~default:[] (Hashtbl.find_opt attach parent));
          seen @ [ l ])
        [ root ] rest
      |> ignore;
      let rec build l =
        Pattern.node l
          (List.rev_map
             (fun (k, c) -> (k, build c))
             (Option.value ~default:[] (Hashtbl.find_opt attach l)))
      in
      build root

let gen_select_case rng seed =
  let n_labels = 1 + Rng.int rng 4 in
  let labels = List.init n_labels (fun i -> i + 1) in
  let shape = gen_shape rng labels in
  let condition = gen_condition rng labels ~extra:(1 + Rng.int rng 3) in
  {
    seed;
    op = Select;
    docs = gen_docs rng condition;
    right_docs = [];
    isa_edges = gen_edges rng ~max_edges:6 ontology_terms;
    part_edges = gen_edges rng ~max_edges:4 ontology_terms;
    eps = Rng.pick rng [ 0.; 1.; 2. ];
    pattern = Pattern.v shape condition;
    sl = gen_sl rng labels;
  }

let gen_join_case rng seed =
  let n_left = 1 + Rng.int rng 2 and n_right = 1 + Rng.int rng 2 in
  let left_labels = List.init n_left (fun i -> i + 1) in
  let right_labels = List.init n_right (fun i -> n_left + i + 1) in
  let left = gen_shape rng left_labels and right = gen_shape rng right_labels in
  let root = Pattern.node 0 [ (edge rng, left); (edge rng, right) ] in
  (* A third of join cases are similarity joins proper: the only cross
     atom is a [~] (or Toss-evaluated [isa]) over content drawn from the
     shared near-miss pool, so the planner's sim-pair lowering — not the
     hash path — carries the case, against corpora where ε decides which
     pairs match. *)
  let sim_cross = Rng.chance rng 35 in
  let cross_eq =
    if (not sim_cross) && Rng.chance rng 70 then
      [ Condition.Cmp
          ( Condition.Content (Rng.pick rng left_labels),
            Condition.Eq,
            Condition.Content (Rng.pick rng right_labels) ) ]
    else []
  in
  (* A second cross atom beyond the equality keys: with the hash path
     chosen, this is the recheck that [Hash_no_recheck] skips. *)
  let cross_extra =
    if sim_cross then
      [ (let l = Rng.pick rng left_labels and r = Rng.pick rng right_labels in
         match Rng.int rng 4 with
         | 0 -> Condition.Isa (Condition.Content l, Condition.Content r)
         | 1 -> Condition.Isa (Condition.Content r, Condition.Content l)
         | _ -> Condition.Sim (Condition.Content l, Condition.Content r)) ]
    else
    match cross_eq with
    | [ Condition.Cmp (lt, _, rt) ] when Rng.chance rng 50 ->
        (* Reuse the hash-key pair. [Neq]/[Lt] contradict the key equality,
           so any probe match whose recheck is skipped is an instant
           discrepancy; [Sim] separates textual from numeric equality
           ("7" vs "7.0" share a hash key and satisfy [Eq] but not
           TAX-mode [~]). *)
        [ (match Rng.int rng 3 with
           | 0 -> Condition.Cmp (lt, Condition.Neq, rt)
           | 1 -> Condition.Cmp (lt, Condition.Lt, rt)
           | _ -> Condition.Sim (lt, rt)) ]
    | _ ->
        if Rng.chance rng 50 then
          [ (let l = Rng.pick rng left_labels and r = Rng.pick rng right_labels in
             match Rng.int rng 3 with
             | 0 -> Condition.Cmp (Condition.Content l, Condition.Neq, Condition.Content r)
             | 1 -> Condition.Cmp (Condition.Content l, Condition.Le, Condition.Content r)
             | _ -> Condition.Sim (Condition.Content l, Condition.Content r)) ]
        else []
  in
  let side_conds =
    [ gen_condition rng left_labels ~extra:(Rng.int rng 2);
      gen_condition rng right_labels ~extra:(Rng.int rng 2) ]
  in
  let condition = Condition.conj (side_conds @ cross_eq @ cross_extra) in
  let pool = if sim_cross then Some near_miss_pool else None in
  {
    seed;
    op = Join;
    docs = gen_docs ?pool rng condition;
    right_docs = gen_docs ?pool rng condition;
    isa_edges = gen_edges rng ~max_edges:6 ontology_terms;
    part_edges = gen_edges rng ~max_edges:4 ontology_terms;
    eps = Rng.pick rng [ 0.; 1.; 2. ];
    pattern = Pattern.v root condition;
    sl = gen_sl rng (left_labels @ right_labels);
  }

let case ?op seed =
  let rng = Rng.create seed in
  let op =
    match op with Some op -> op | None -> if Rng.chance rng 60 then Select else Join
  in
  match op with Select -> gen_select_case rng seed | Join -> gen_join_case rng seed

(* ------------------------- repro printing ------------------------- *)

let ocaml_string s = Printf.sprintf "%S" s

let term_to_ocaml = function
  | Condition.Tag i -> Printf.sprintf "Tag %d" i
  | Condition.Content i -> Printf.sprintf "Content %d" i
  | Condition.Str s -> Printf.sprintf "Str %s" (ocaml_string s)

let cmp_to_ocaml = function
  | Condition.Eq -> "Eq" | Condition.Neq -> "Neq" | Condition.Le -> "Le"
  | Condition.Ge -> "Ge" | Condition.Lt -> "Lt" | Condition.Gt -> "Gt"

let rec condition_to_ocaml c =
  let t = term_to_ocaml and s = ocaml_string in
  match c with
  | Condition.True -> "True"
  | Condition.Cmp (x, op, y) ->
      Printf.sprintf "Cmp (%s, %s, %s)" (t x) (cmp_to_ocaml op) (t y)
  | Condition.Contains (x, v) -> Printf.sprintf "Contains (%s, %s)" (t x) (s v)
  | Condition.Sim (x, y) -> Printf.sprintf "Sim (%s, %s)" (t x) (t y)
  | Condition.Isa (x, y) -> Printf.sprintf "Isa (%s, %s)" (t x) (t y)
  | Condition.Part_of (x, y) -> Printf.sprintf "Part_of (%s, %s)" (t x) (t y)
  | Condition.Instance_of (x, y) -> Printf.sprintf "Instance_of (%s, %s)" (t x) (t y)
  | Condition.Subtype_of (x, y) -> Printf.sprintf "Subtype_of (%s, %s)" (t x) (t y)
  | Condition.Below (x, y) -> Printf.sprintf "Below (%s, %s)" (t x) (t y)
  | Condition.Above (x, y) -> Printf.sprintf "Above (%s, %s)" (t x) (t y)
  | Condition.And (p, q) ->
      Printf.sprintf "And (%s, %s)" (condition_to_ocaml p) (condition_to_ocaml q)
  | Condition.Or (p, q) ->
      Printf.sprintf "Or (%s, %s)" (condition_to_ocaml p) (condition_to_ocaml q)
  | Condition.Not p -> Printf.sprintf "Not (%s)" (condition_to_ocaml p)

let rec node_to_ocaml (n : Pattern.node) =
  match n.Pattern.children with
  | [] -> Printf.sprintf "Pattern.leaf %d" n.Pattern.label
  | children ->
      Printf.sprintf "Pattern.node %d [ %s ]" n.Pattern.label
        (String.concat "; "
           (List.map
              (fun (k, c) ->
                Printf.sprintf "(%s, %s)"
                  (match k with Pattern.Pc -> "Pattern.Pc" | Pattern.Ad -> "Pattern.Ad")
                  (node_to_ocaml c))
              children))

let edges_to_ocaml edges =
  String.concat "; "
    (List.map (fun (a, b) -> Printf.sprintf "(%s, %s)" (ocaml_string a) (ocaml_string b)) edges)

let docs_to_ocaml docs =
  String.concat ";\n    "
    (List.map
       (fun d -> Printf.sprintf "Parser.parse_exn {xml|%s|xml}" (Printer.to_string d))
       docs)

(* A paste-into-test reproduction: everything needed to rebuild the case
   with the library's public constructors (open Toss_tax.Condition for
   the condition constructors). *)
let to_ocaml c =
  let buf = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "(* seed %d *)\n" c.seed;
  add "let docs = [ %s ] in\n" (docs_to_ocaml c.docs);
  (match c.op with
  | Select -> ()
  | Join -> add "let right_docs = [ %s ] in\n" (docs_to_ocaml c.right_docs));
  add "let isa_edges = [ %s ] in\n" (edges_to_ocaml c.isa_edges);
  add "let part_edges = [ %s ] in\n" (edges_to_ocaml c.part_edges);
  add "let pattern = Pattern.v (%s)\n  (%s) in\n"
    (node_to_ocaml c.pattern.Pattern.root)
    (condition_to_ocaml c.pattern.Pattern.condition);
  add "let sl = [ %s ] in\n"
    (String.concat "; " (List.map string_of_int c.sl));
  add "(* eps = %g; op = %s *)"
    c.eps
    (match c.op with Select -> "select" | Join -> "join");
  Buffer.contents buf

let pp ppf c = Format.pp_print_string ppf (to_ocaml c)
