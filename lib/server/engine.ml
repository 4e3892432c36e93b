module J = Toss_json
module Session = Toss_core.Session
module Tql = Toss_core.Tql
module Executor = Toss_core.Executor
module Explain = Toss_core.Explain
module Planner = Toss_core.Planner
module Collection = Toss_store.Collection
module Database = Toss_store.Database
module Persist = Toss_store.Persist
module Printer = Toss_xml.Printer
module Parser = Toss_xml.Parser
module Doc = Toss_xml.Tree.Doc
module Metrics = Toss_obs.Metrics

exception Deadline

type t = {
  write_lock : Mutex.t;
      (* serializes the write path only: session insert + persistence
         append commit together. Queries never take it — they pin a
         session snapshot and run lock-free. *)
  session : Session.t;
  cache : Cache.t;
  cache_capacity : int;
  config : string;
  db_dir : string option;
}

let m_requests =
  Metrics.per_label (fun op -> Metrics.counter ~labels:[ ("op", op) ] "server.requests.total")

let m_errors =
  Metrics.per_label (fun code ->
      Metrics.counter ~labels:[ ("code", code) ] "server.errors.total")

let h_seconds =
  Metrics.per_label (fun op ->
      Metrics.histogram ~labels:[ ("op", op) ] "server.request.seconds")

let err code fmt = Printf.ksprintf (fun m -> Error (Protocol.error code m)) fmt

let hydrate session dir =
  if Sys.file_exists dir then
    match Persist.load_database ~dir with
    | Error msg -> Error msg
    | Ok db ->
        List.iter
          (fun name ->
            let coll = Database.collection_exn db name in
            List.iter
              (fun id ->
                Session.add_document session ~collection:name
                  (Doc.to_tree (Collection.doc coll id)))
              (Collection.doc_ids coll))
          (Database.collection_names db);
        Ok ()
  else
    match Sys.mkdir dir 0o755 with
    | () -> Ok ()
    | exception Sys_error msg ->
        Error (Printf.sprintf "cannot create database directory %S: %s" dir msg)

let create ?db_dir ?metric ?(eps = 2.0) ?(cache_capacity = 256) () =
  let metric =
    Option.value metric ~default:Toss_similarity.Levenshtein.metric
  in
  let session = Session.create ~metric ~eps () in
  let hydrated =
    match db_dir with None -> Ok () | Some dir -> hydrate session dir
  in
  match hydrated with
  | Error msg -> Error msg
  | Ok () ->
      Ok
        {
          write_lock = Mutex.create ();
          session;
          cache = Cache.create ~capacity:cache_capacity ();
          cache_capacity;
          config =
            Printf.sprintf "%s;eps=%g" metric.Toss_similarity.Metric.name eps;
          db_dir;
        }

let write_locked t f =
  Mutex.lock t.write_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.write_lock) f

let mode_name = function Executor.Tax -> "tax" | Executor.Toss -> "toss"

let check_of_deadline deadline () =
  match deadline with
  | Some d when Unix.gettimeofday () > d -> raise Deadline
  | _ -> ()

(* A query's answer as the wire sees it: [compute_ms] is what the miss
   or delta that produced the trees took, and [cache] says which path
   this request took. *)
let query_payload ~collection ~status ~version ~count ~compute_ms trees =
  J.Obj
    [
      ("collection", J.Str collection);
      ("version", J.Num (float_of_int version));
      ("count", J.Num (float_of_int count));
      ("compute_ms", J.Num compute_ms);
      ("trees", J.Arr trees);
      ("cache", J.Str status);
    ]

let do_insert t ~collection ~xml =
  match Parser.parse xml with
  | Error e -> err Protocol.Parse_error "%s" (Format.asprintf "%a" Parser.pp_error e)
  | Ok tree ->
      let id = Session.insert t.session ~collection tree in
      let version = Session.version t.session ~collection in
      Option.iter
        (fun dir -> Persist.append_document ~dir ~collection id tree)
        t.db_dir;
      Ok
        (J.Obj
           [
             ("collection", J.Str collection);
             ("doc_id", J.Num (float_of_int id));
             ("version", J.Num (float_of_int version));
           ])

(* The linearization point of a read is [Session.pin]: it captures the
   (SEO, snapshot) pair atomically with respect to writers, and both the
   cache lookup and the executed query use that capture — so a hit, a
   delta and a miss all answer exactly the pinned collection state, no
   matter how many writes or other queries run meanwhile. A delta runs
   the query over the documents inserted since its entry's version only
   ([Session.since]) and appends their trees. Returns the body plus the
   executed query's span tree (None on hits — nothing ran — on
   projections and on errors), so the server can attach the trace to
   sampled access-log records without re-running anything. *)
let do_query t ~deadline ~collection ~tql ~mode ~cache =
  match Session.pin t.session ~collection with
  | Error msg -> (err Protocol.Unknown_collection "%s" msg, None)
  | Ok pinned -> (
      let version = Session.pinned_version pinned in
      let key = { Cache.collection; config = t.config; mode = mode_name mode; tql } in
      (* Runs the query over [over] and answers with [prefix]'s trees
         followed by the run's, publishing them under [seo] if given. *)
      let extend ~status ?seo ?prefix over =
        let t0 = Unix.gettimeofday () in
        match Session.query_at ~mode ~check:(check_of_deadline deadline) over tql with
        | exception Deadline ->
            (err Protocol.Deadline_exceeded "deadline exceeded during execution", None)
        | Error msg -> (err Protocol.Query_error "%s" msg, None)
        | Ok answer ->
            let compute_ms = (Unix.gettimeofday () -. t0) *. 1000. in
            let fresh =
              List.map
                (fun tr -> J.Str (Printer.to_string ~decl:false tr))
                answer.Session.trees
            in
            let trees, count =
              match prefix with
              | None -> (fresh, List.length fresh)
              | Some (e : Cache.entry) ->
                  (e.Cache.trees @ fresh, e.Cache.count + List.length fresh)
            in
            Option.iter
              (fun seo ->
                Cache.publish t.cache key ~seo { Cache.version; trees; count; compute_ms })
              seo;
            ( Ok (query_payload ~collection ~status ~version ~count ~compute_ms trees),
              Option.map
                (fun (s : Executor.stats) -> s.Executor.trace)
                answer.Session.stats )
      in
      match Session.pinned_seo pinned with
      | Ok seo when cache && t.cache_capacity > 0 -> (
          match Cache.find t.cache key ~version ~seo with
          | Cache.Hit e ->
              ( Ok
                  (query_payload ~collection ~status:"hit" ~version ~count:e.Cache.count
                     ~compute_ms:e.Cache.compute_ms e.Cache.trees),
                None )
          | Cache.Delta e ->
              let from =
                if !Cache.fault = Cache.Extend_skip_new_docs then version
                else e.Cache.version
              in
              extend ~status:"delta" ~seo ~prefix:e (Session.since pinned from)
          | Cache.Miss -> extend ~status:"miss" ~seo pinned)
      | _ -> extend ~status:"miss" pinned)

(* Joins pin both snapshots atomically ([Session.pin2]) but bypass the
   result cache: its entries are keyed per single collection, and a
   join's answer is not its left documents' answers in order (it pairs
   them with every right document). The deadline [check] reaches the
   pairing operator's probe loop, so a join is cancellable mid-probe —
   with no partial witnesses, since the whole request fails with
   [deadline_exceeded]. *)
let do_join t ~deadline ~left ~right ~tql ~mode =
  match Session.pin2 t.session ~left ~right with
  | Error msg -> (err Protocol.Unknown_collection "%s" msg, None)
  | Ok pinned -> (
      let lversion, rversion = Session.pinned2_versions pinned in
      let t0 = Unix.gettimeofday () in
      let check = check_of_deadline deadline in
      match Session.join_at ~mode ~check pinned tql with
      | exception Deadline ->
          ( err Protocol.Deadline_exceeded "deadline exceeded during execution",
            None )
      | Error msg -> (err Protocol.Query_error "%s" msg, None)
      | Ok answer ->
          let compute_ms = (Unix.gettimeofday () -. t0) *. 1000. in
          let payload =
            J.Obj
              [
                ("left", J.Str left);
                ("right", J.Str right);
                ("left_version", J.Num (float_of_int lversion));
                ("right_version", J.Num (float_of_int rversion));
                ("count", J.Num (float_of_int (List.length answer.Session.trees)));
                ("compute_ms", J.Num compute_ms);
                ( "trees",
                  J.Arr
                    (List.map
                       (fun tr -> J.Str (Printer.to_string ~decl:false tr))
                       answer.Session.trees) );
              ]
          in
          ( Ok payload,
            Option.map
              (fun (s : Executor.stats) -> s.Executor.trace)
              answer.Session.stats ))

let do_explain t ~collection ~tql ~mode =
  match Session.pin t.session ~collection with
  | Error msg -> err Protocol.Unknown_collection "%s" msg
  | Ok pinned -> (
      match Tql.parse tql with
      | Error msg -> err Protocol.Query_error "TQL: %s" msg
      | Ok q -> (
          match Session.pinned_seo pinned with
          | Error msg -> err Protocol.Query_error "%s" msg
          | Ok seo -> (
              match q.Tql.target with
              | Tql.Project _ ->
                  err Protocol.Query_error "explain supports SELECT queries only"
              | Tql.Select sl ->
                  let plan =
                    Planner.plan_select ~mode ~optimize:true seo
                      (Session.pinned_snapshot pinned) ~pattern:q.Tql.pattern ~sl
                  in
                  let e =
                    Explain.with_plan (Explain.explain ~mode seo q.Tql.pattern) plan
                  in
                  Ok (Explain.to_json e))))

let do_stats () =
  let snap = Metrics.snapshot () in
  Ok
    (J.Obj
       [
         ("metrics", Metrics.to_json snap);
         ("table", J.Str (Metrics.to_table snap));
       ])

let do_metrics () =
  Ok
    (J.Obj
       [ ("prometheus", J.Str (Metrics.to_prometheus (Metrics.snapshot ()))) ])

let run t ~deadline request =
  let op = Protocol.op_name request in
  Metrics.incr (m_requests op);
  let t0 = Unix.gettimeofday () in
  let result, trace =
    if (match deadline with Some d -> t0 > d | None -> false) then
      ( err Protocol.Deadline_exceeded "deadline exceeded before execution",
        None )
    else
      match request with
      | Protocol.Ping | Protocol.Shutdown ->
          (Ok (J.Obj [ ("pong", J.Bool true) ]), None)
      | Protocol.Stats -> (do_stats (), None)
      | Protocol.Metrics -> (do_metrics (), None)
      | Protocol.Insert { collection; xml } ->
          (write_locked t (fun () -> do_insert t ~collection ~xml), None)
      | Protocol.Query { collection; tql; mode; cache } ->
          do_query t ~deadline ~collection ~tql ~mode ~cache
      | Protocol.Join { left; right; tql; mode } ->
          do_join t ~deadline ~left ~right ~tql ~mode
      | Protocol.Explain { collection; tql; mode } ->
          (do_explain t ~collection ~tql ~mode, None)
  in
  Metrics.observe (h_seconds op) (Unix.gettimeofday () -. t0);
  (match result with
  | Error e -> Metrics.incr (m_errors (Protocol.code_name e.Protocol.code))
  | Ok _ -> ());
  (result, trace)

let exec t ~deadline request = fst (run t ~deadline request)

let exec_traced t ~deadline ~trace_id:_ (env : Protocol.envelope) =
  run t ~deadline env.request
