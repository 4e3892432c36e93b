module Tree = Toss_xml.Tree
module Doc = Tree.Doc
module Collection = Toss_store.Collection
module Database = Toss_store.Database
module Metric = Toss_similarity.Metric
module Levenshtein = Toss_similarity.Levenshtein

type t = {
  lock : Mutex.t;
      (* guards [cached_seo], [previous] and [digests], and makes (SEO,
         snapshot) capture atomic with respect to writes; never held
         while a query executes *)
  database : Database.t;
  metric : Metric.t;
  eps : float;
  lexicon : Toss_ontology.Lexicon.t option;
  content_tags : string list option;
  max_content_terms : int option;
  mutable cached_seo : (Seo.t, string) result option;
  mutable previous : Seo.t option;
      (* the last good SEO, built from every digest in [digests]; reused
         from *)
  digests : (string * Collection.doc_id, Toss_ontology.Ontology.t) Hashtbl.t;
      (* each stored document's Maker ontology, keyed by (collection,
         doc id); documents are immutable and never removed, so an entry
         cannot go stale *)
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
    previous = None;
    digests = Hashtbl.create 64;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let add_collection_unlocked t name =
  match Database.collection t.database name with
  | Some c -> c
  | None -> Database.create_collection t.database name

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

let digest_unlocked t fresh name snap id =
  match Hashtbl.find_opt t.digests (name, id) with
  | Some o -> o
  | None ->
      let o =
        Seo.digest ?lexicon:t.lexicon ?content_tags:t.content_tags
          ?max_content_terms:t.max_content_terms (Collection.Snapshot.doc snap id)
      in
      Hashtbl.add t.digests (name, id) o;
      fresh := o :: !fresh;
      o

(* [previous] is dropped while the build runs, so a build that fails or
   raises cannot leave it behind a digest it lacks. *)
let seo_unlocked t =
  match t.cached_seo with
  | Some result -> result
  | None ->
      let previous = t.previous in
      t.previous <- None;
      let result =
        Seo.timed_build (fun () ->
            let fresh = ref [] in
            let ontologies =
              List.concat_map
                (fun (name, snap) ->
                  List.map (digest_unlocked t fresh name snap)
                    (Collection.Snapshot.doc_ids snap))
                (Database.snapshot t.database)
            in
            Seo.of_ontologies ~metric:t.metric ~eps:t.eps ?lexicon:t.lexicon
              ?previous:(Option.map (fun p -> (p, !fresh)) previous)
              ontologies)
      in
      t.previous <- Result.to_option result;
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
let since p version = { p with pin_snap = Collection.Snapshot.since p.pin_snap version }

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
