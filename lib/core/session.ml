module Tree = Toss_xml.Tree
module Doc = Tree.Doc
module Collection = Toss_store.Collection
module Database = Toss_store.Database
module Metric = Toss_similarity.Metric
module Levenshtein = Toss_similarity.Levenshtein

type t = {
  lock : Mutex.t;
      (* guards [cached_seo] and makes (SEO, snapshot) capture atomic
         with respect to writes; never held while a query executes *)
  database : Database.t;
  metric : Metric.t;
  eps : float;
  lexicon : Toss_ontology.Lexicon.t option;
  content_tags : string list option;
  max_content_terms : int option;
  mutable cached_seo : (Seo.t, string) result option;
}

let create ?(metric = Levenshtein.metric) ?(eps = 2.0) ?lexicon ?content_tags
    ?max_content_terms () =
  {
    lock = Mutex.create ();
    database = Database.create ();
    metric;
    eps;
    lexicon;
    content_tags;
    max_content_terms;
    cached_seo = None;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let invalidate t = locked t (fun () -> t.cached_seo <- None)

let add_collection_unlocked t name =
  match Database.collection t.database name with
  | Some c -> c
  | None -> Database.create_collection t.database name

let add_collection t name = locked t (fun () -> add_collection_unlocked t name)

let insert t ~collection tree =
  locked t (fun () ->
      let id = Collection.add_document (add_collection_unlocked t collection) tree in
      t.cached_seo <- None;
      id)

let add_document t ~collection tree = ignore (insert t ~collection tree)

let version t ~collection =
  match Database.collection t.database collection with
  | Some c -> Collection.version c
  | None -> 0

let add_xml t ~collection xml =
  locked t (fun () ->
      match Collection.add_xml (add_collection_unlocked t collection) xml with
      | Ok _ ->
          t.cached_seo <- None;
          Ok ()
      | Error e -> Error e)

let collection t name = Database.collection t.database name
let collection_names t = Database.collection_names t.database

let all_docs t =
  List.concat_map
    (fun (_, snap) ->
      List.map
        (fun id -> Collection.Snapshot.doc snap id)
        (Collection.Snapshot.doc_ids snap))
    (Database.snapshot t.database)

let seo_unlocked t =
  match t.cached_seo with
  | Some result -> result
  | None ->
      let result =
        Seo.of_documents ~metric:t.metric ~eps:t.eps ?lexicon:t.lexicon
          ?content_tags:t.content_tags ?max_content_terms:t.max_content_terms
          (all_docs t)
      in
      t.cached_seo <- Some result;
      result

let seo t = locked t (fun () -> seo_unlocked t)

(* ------------------------- pinned queries ------------------------- *)

type pinned = {
  pin_seo : (Seo.t, string) result;
  pin_snap : Collection.Snapshot.t;
}

let pin t ~collection =
  locked t (fun () ->
      match Database.collection t.database collection with
      | None -> Error (Printf.sprintf "unknown collection %S" collection)
      | Some coll ->
          let pin_seo = seo_unlocked t in
          Ok { pin_seo; pin_snap = Collection.snapshot coll })

type pinned2 = {
  pin2_seo : (Seo.t, string) result;
  pin2_left : Collection.Snapshot.t;
  pin2_right : Collection.Snapshot.t;
}

let pin2 t ~left ~right =
  locked t (fun () ->
      match
        (Database.collection t.database left, Database.collection t.database right)
      with
      | None, _ -> Error (Printf.sprintf "unknown collection %S" left)
      | _, None -> Error (Printf.sprintf "unknown collection %S" right)
      | Some l, Some r ->
          let pin2_seo = seo_unlocked t in
          Ok
            {
              pin2_seo;
              pin2_left = Collection.snapshot l;
              pin2_right = Collection.snapshot r;
            })

let pinned_version p = Collection.Snapshot.version p.pin_snap
let pinned_snapshot p = p.pin_snap
let pinned_seo p = p.pin_seo

let pinned2_versions p =
  (Collection.Snapshot.version p.pin2_left, Collection.Snapshot.version p.pin2_right)

type answer = { trees : Tree.t list; stats : Executor.stats option }

let with_query seo_result text f =
  match Tql.parse text with
  | Error msg -> Error ("TQL: " ^ msg)
  | Ok q -> (
      match seo_result with
      | Error msg -> Error msg
      | Ok context -> f q context)

let query_at ?(mode = Executor.Toss) ?check p text =
  let snap = p.pin_snap in
  with_query p.pin_seo text (fun q context ->
      match q.Tql.target with
      | Tql.Select sl ->
          let trees, stats =
            Executor.select ~mode ?check context snap ~pattern:q.Tql.pattern ~sl
          in
          Ok { trees; stats = Some stats }
      | Tql.Project pl ->
          let eval =
            match mode with
            | Executor.Tax -> Toss_tax.Condition.eval_tax
            | Executor.Toss -> Toss_condition.evaluator context
          in
          let inputs =
            List.map
              (fun id -> Doc.to_tree (Collection.Snapshot.doc snap id))
              (Collection.Snapshot.doc_ids snap)
          in
          let trees =
            Toss_tax.Algebra.project ~eval ~pattern:q.Tql.pattern ~pl inputs
          in
          Ok { trees; stats = None })

let query ?mode ?check t ~collection text =
  match pin t ~collection with
  | Error msg -> Error msg
  | Ok p -> query_at ?mode ?check p text

let join_at ?(mode = Executor.Toss) ?check p text =
  with_query p.pin2_seo text (fun q context ->
      match q.Tql.target with
      | Tql.Project _ -> Error "join does not support PROJECT"
      | Tql.Select sl ->
          let trees, stats =
            Executor.join ~mode ?check context p.pin2_left p.pin2_right
              ~pattern:q.Tql.pattern ~sl
          in
          Ok { trees; stats = Some stats })

let join ?mode ?check t ~left ~right text =
  match pin2 t ~left ~right with
  | Error msg -> Error msg
  | Ok p -> join_at ?mode ?check p text
