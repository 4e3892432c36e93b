module Printer = Toss_xml.Printer
module Parser = Toss_xml.Parser
module Tree = Toss_xml.Tree
module Doc = Tree.Doc
module Metrics = Toss_obs.Metrics

let m_evals = Metrics.counter "store.eval.queries"
let m_indexed_paths = Metrics.counter "store.eval.indexed_paths"
let m_scanned_paths = Metrics.counter "store.eval.scanned_paths"
let m_index_starts = Metrics.histogram "store.eval.index_starts"
let m_results = Metrics.histogram "store.eval.results"
let m_docs = Metrics.counter "store.documents.added"

type doc_id = int

(* The per-document value index is built on first use and published with
   a CAS: two domains racing on a cold entry both build (Index.build is
   pure), one publishes, the loser adopts the winner's value. No lock,
   no Lazy (forcing a Lazy.t concurrently raises
   CamlinternalLazy.Undefined). *)
type entry = { frozen : Doc.t; idx : Index.t option Atomic.t; bytes : int }

(* One immutable version of the collection. Everything reachable from a
   view is either immutable (entries array is never mutated after
   publication, frozen docs are read-only) or monotonic CAS-published
   caches (per-entry indexes, tag stats), so a view can be read from any
   number of domains with no synchronization. *)
type view = {
  snap_name : string;
  snap_version : int;
  entries : entry array;  (* dense: entry i is document i *)
  snap_bytes : int;
  snap_stats : (string, int * int) Hashtbl.t option Atomic.t;
      (* tag -> (nodes, docs); built on demand, published once, read-only
         afterwards *)
}

type t = {
  coll_name : string;
  max_bytes : int option;
  writer : Mutex.t;  (* serializes add_document; readers never take it *)
  current : view Atomic.t;
}

exception Collection_full of { name : string; limit : int }

let create ?max_bytes name =
  {
    coll_name = name;
    max_bytes;
    writer = Mutex.create ();
    current =
      Atomic.make
        {
          snap_name = name;
          snap_version = 0;
          entries = [||];
          snap_bytes = 0;
          snap_stats = Atomic.make None;
        };
  }

let name t = t.coll_name
let snapshot t = Atomic.get t.current

let add_document t tree =
  Mutex.lock t.writer;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.writer)
    (fun () ->
      let v = Atomic.get t.current in
      let bytes = Printer.byte_size tree in
      (match t.max_bytes with
      | Some limit when v.snap_bytes + bytes > limit ->
          raise (Collection_full { name = t.coll_name; limit })
      | _ -> ());
      let frozen = Doc.of_tree tree in
      let entry = { frozen; idx = Atomic.make None; bytes } in
      let n = Array.length v.entries in
      let entries = Array.make (n + 1) entry in
      Array.blit v.entries 0 entries 0 n;
      Atomic.set t.current
        {
          snap_name = t.coll_name;
          snap_version = v.snap_version + 1;
          entries;
          snap_bytes = v.snap_bytes + bytes;
          snap_stats = Atomic.make None;
        };
      Metrics.incr m_docs;
      n)

let of_trees ?(name = "anon") trees =
  let t = create name in
  List.iter (fun tree -> ignore (add_document t tree)) trees;
  t

let add_xml t xml =
  match Parser.parse xml with
  | Ok tree -> Ok (add_document t tree)
  | Error e -> Error e

(* --------------------- reads, against one view --------------------- *)

let v_entry v id =
  if id < 0 || id >= Array.length v.entries then raise Not_found
  else v.entries.(id)

let v_version v = v.snap_version
let v_name v = v.snap_name
let v_doc v id = (v_entry v id).frozen

let force_index (e : entry) =
  match Atomic.get e.idx with
  | Some i -> i
  | None ->
      let built = Index.build e.frozen in
      if Atomic.compare_and_set e.idx None (Some built) then built
      else Option.get (Atomic.get e.idx)

let v_index v id = force_index (v_entry v id)
let v_doc_ids v = List.init (Array.length v.entries) Fun.id
let v_n_documents v = Array.length v.entries
let v_size_bytes v = v.snap_bytes

let v_n_nodes v =
  let total = ref 0 in
  for i = 0 to Array.length v.entries - 1 do
    total := !total + Doc.size v.entries.(i).frozen
  done;
  !total

(* With the index enabled, a query whose first step is [//tag] starts from
   the tag index rather than enumerating every node. [indexed]/[scanned]
   accumulate per-eval path counts for the caller's span annotation on
   top of the process-wide metrics. *)
let eval_in_doc ~use_index ~indexed ~scanned d xpath =
  if not use_index then begin
    Metrics.incr ~by:(List.length xpath) m_scanned_paths;
    scanned := !scanned + List.length xpath;
    Xpath.eval d xpath
  end
  else
    let eval_path path =
      match path with
      | { Xpath.axis = Descendant; test = Tag tag; predicates } :: rest ->
          Metrics.incr m_indexed_paths;
          incr indexed;
          let starts = Doc.by_tag d tag in
          Metrics.observe_int m_index_starts (List.length starts);
          let starts =
            List.fold_left
              (fun nodes pred ->
                match pred with
                | Xpath.Position k -> (
                    match List.nth_opt nodes (k - 1) with Some n -> [ n ] | None -> [])
                | p -> List.filter (fun n -> Xpath.matches d n p) nodes)
              starts predicates
          in
          List.concat_map
            (fun start ->
              (* Evaluate the remaining relative steps from this start. *)
              let rec go contexts = function
                | [] -> contexts
                | (st : Xpath.step) :: more ->
                    let nexts =
                      List.concat_map
                        (fun ctx ->
                          let candidates =
                            match st.Xpath.axis with
                            | Xpath.Child ->
                                List.filter
                                  (fun n ->
                                    match st.Xpath.test with
                                    | Xpath.Any -> true
                                    | Xpath.Tag tg -> Doc.tag d n = tg)
                                  (Doc.children d ctx)
                            | Xpath.Descendant ->
                                List.filter
                                  (fun n ->
                                    match st.Xpath.test with
                                    | Xpath.Any -> true
                                    | Xpath.Tag tg -> Doc.tag d n = tg)
                                  (Doc.descendants d ctx)
                          in
                          List.fold_left
                            (fun nodes pred ->
                              match pred with
                              | Xpath.Position k -> (
                                  match List.nth_opt nodes (k - 1) with
                                  | Some n -> [ n ]
                                  | None -> [])
                              | p -> List.filter (fun n -> Xpath.matches d n p) nodes)
                            candidates st.Xpath.predicates)
                        contexts
                    in
                    go nexts more
              in
              go [ start ] rest)
            starts
      | _ ->
          Metrics.incr m_scanned_paths;
          incr scanned;
          Xpath.eval d [ path ]
    in
    List.concat_map eval_path xpath |> List.sort_uniq Int.compare

let v_eval ?(use_index = true) v xpath =
  Metrics.incr m_evals;
  let indexed = ref 0 and scanned = ref 0 in
  let results = ref [] in
  for id = Array.length v.entries - 1 downto 0 do
    let d = v.entries.(id).frozen in
    let nodes = eval_in_doc ~use_index ~indexed ~scanned d xpath in
    results := List.rev_append (List.rev_map (fun n -> (id, n)) nodes) !results
  done;
  let n = List.length !results in
  Metrics.observe_int m_results n;
  (* Actuals for the executor's per-label [xpath] span (no-op outside
     one); what EXPLAIN ANALYZE renders as rows / index hit counts. *)
  Toss_obs.Span.annotate
    [
      ("rows", string_of_int n);
      ("indexed", string_of_int !indexed);
      ("scanned", string_of_int !scanned);
    ];
  !results

let v_eval_string ?use_index v s = v_eval ?use_index v (Xpath_parser.parse_exn s)

(* ------------------------- statistics ----------------------------- *)

(* Per-tag node and document counts across one view, built on demand
   from the frozen documents' tag tables and published with a CAS. The
   table is never mutated after publication, so concurrent readers share
   it safely; a racing builder's duplicate table is dropped. This is the
   planner's selectivity source: exact for the leading [//tag] step of a
   rewritten query. *)
let tag_table v =
  match Atomic.get v.snap_stats with
  | Some table -> table
  | None ->
      let table = Hashtbl.create 64 in
      for id = 0 to Array.length v.entries - 1 do
        let d = v.entries.(id).frozen in
        List.iter
          (fun tag ->
            let n = List.length (Doc.by_tag d tag) in
            let nodes, docs =
              Option.value ~default:(0, 0) (Hashtbl.find_opt table tag)
            in
            Hashtbl.replace table tag (nodes + n, docs + 1))
          (Doc.tags d)
      done;
      if Atomic.compare_and_set v.snap_stats None (Some table) then table
      else Option.get (Atomic.get v.snap_stats)

let v_tag_count v tag =
  match Hashtbl.find_opt (tag_table v) tag with
  | Some (nodes, _) -> nodes
  | None -> 0

let v_docs_with_tag v tag =
  match Hashtbl.find_opt (tag_table v) tag with
  | Some (_, docs) -> docs
  | None -> 0

let v_eq_count v ~tag ~value =
  let total = ref 0 in
  for id = 0 to Array.length v.entries - 1 do
    total := !total + Index.eq_count (force_index v.entries.(id)) ~tag ~value
  done;
  !total

(* Estimated result cardinality of a query: per union path, the matches
   of the {e last} step (which determines the result arity), refined by
   its exact-content predicates through the value indexes. An estimate,
   not a bound — intermediate steps are ignored — but exact for the
   common rewritten shapes [//tag] and [//a/b[.='v' or ...]], which is
   what the planner orders label scans by. *)
let v_estimate_rows v xpath =
  let total_nodes = v_n_nodes v in
  let n_docs = Array.length v.entries in
  let rec est_pred ~tag base = function
    | Xpath.Content_eq value -> (
        match tag with
        | Some tg -> min base (v_eq_count v ~tag:tg ~value)
        | _ -> base)
    | Xpath.And (p, q) -> min (est_pred ~tag base p) (est_pred ~tag base q)
    | Xpath.Or (p, q) -> min base (est_pred ~tag base p + est_pred ~tag base q)
    | Xpath.Position _ -> min base n_docs
    | _ -> base
  in
  let est_path path =
    match List.rev path with
    | [] -> 0
    | (last : Xpath.step) :: _ ->
        let base, tag =
          match last.Xpath.test with
          | Xpath.Tag tg -> (v_tag_count v tg, Some tg)
          | Xpath.Any -> (total_nodes, None)
        in
        List.fold_left
          (fun acc p -> min acc (est_pred ~tag base p))
          base last.Xpath.predicates
  in
  min total_nodes (List.fold_left (fun acc path -> acc + est_path path) 0 xpath)

let v_eq_lookup v ~tag ~value =
  List.concat
    (List.map
       (fun id ->
         List.map (fun n -> (id, n)) (Index.eq_lookup (v_index v id) ~tag ~value))
       (v_doc_ids v))

let v_subtrees v results =
  List.map (fun (id, n) -> Doc.subtree (v_doc v id) n) results

module Snapshot = struct
  type nonrec t = view

  let name = v_name
  let version = v_version
  let doc = v_doc
  let index = v_index
  let doc_ids = v_doc_ids
  let n_documents = v_n_documents
  let size_bytes = v_size_bytes
  let n_nodes = v_n_nodes
  let eval = v_eval
  let eval_string = v_eval_string
  let eq_lookup = v_eq_lookup
  let tag_count = v_tag_count
  let docs_with_tag = v_docs_with_tag
  let eq_count = v_eq_count
  let estimate_rows = v_estimate_rows
  let subtrees = v_subtrees
end

(* Collection-level reads delegate to the current view: each call pins
   its own snapshot, so a single call is internally consistent but two
   consecutive calls may observe different versions. Callers needing
   repeatable reads across calls hold a {!snapshot}. *)

let version t = v_version (snapshot t)
let doc t id = v_doc (snapshot t) id
let index t id = v_index (snapshot t) id
let doc_ids t = v_doc_ids (snapshot t)
let n_documents t = v_n_documents (snapshot t)
let size_bytes t = v_size_bytes (snapshot t)
let n_nodes t = v_n_nodes (snapshot t)
let eval ?use_index t xpath = v_eval ?use_index (snapshot t) xpath
let eval_string ?use_index t s = v_eval_string ?use_index (snapshot t) s
let eq_lookup t ~tag ~value = v_eq_lookup (snapshot t) ~tag ~value
let tag_count t tag = v_tag_count (snapshot t) tag
let docs_with_tag t tag = v_docs_with_tag (snapshot t) tag
let eq_count t ~tag ~value = v_eq_count (snapshot t) ~tag ~value
let estimate_rows t xpath = v_estimate_rows (snapshot t) xpath
let subtrees t results = v_subtrees (snapshot t) results
