module J = Toss_json
module P = Toss_server.Protocol
module Client = Toss_server.Client
module Parser = Toss_xml.Parser
module Printer = Toss_xml.Printer
module Witness = Toss_tax.Witness
module Metrics = Toss_obs.Metrics

let m_requests =
  Metrics.per_label (fun op -> Metrics.counter ~labels:[ ("op", op) ] "router.requests.total")

let m_errors =
  Metrics.per_label (fun code ->
      Metrics.counter ~labels:[ ("code", code) ] "router.errors.total")

let m_shard_fail shard =
  Metrics.counter ~labels:[ ("shard", shard) ] "router.shard.failures.total"

let h_seconds =
  Metrics.per_label (fun op ->
      Metrics.histogram ~labels:[ ("op", op) ] "router.request.seconds")

let err code fmt = Printf.ksprintf (fun m -> Error (P.error code m)) fmt
let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Shard connection pools                                              *)

type pool = {
  p_addr : string;
  p_lock : Mutex.t;
  mutable p_idle : Client.t list;
}

type t = {
  map : Shard_map.t;
  connect_retry_ms : int;
  pools : pool array;
  ins_lock : Mutex.t;
      (* serializes inserts: replicas must apply them in one order, and
         the sequence counters must agree with what was sent *)
  seqs : (string, int ref) Hashtbl.t;  (* partitioned collection -> next seq *)
}

let domains = 2
let max_queue = 4096

let create ?(connect_retry_ms = 1000) map =
  {
    map;
    connect_retry_ms;
    pools =
      Array.init (Shard_map.n map) (fun i ->
          { p_addr = Shard_map.addr map i; p_lock = Mutex.create (); p_idle = [] });
    ins_lock = Mutex.create ();
    seqs = Hashtbl.create 16;
  }

let take_conn state i =
  let p = state.pools.(i) in
  Mutex.lock p.p_lock;
  let cached =
    match p.p_idle with
    | [] -> None
    | c :: rest ->
        p.p_idle <- rest;
        Some c
  in
  Mutex.unlock p.p_lock;
  match cached with
  | Some c -> Ok c
  | None ->
      Client.connect ~codec:P.Binary ~retry_ms:state.connect_retry_ms
        p.p_addr

let put_conn state i c =
  let p = state.pools.(i) in
  Mutex.lock p.p_lock;
  p.p_idle <- c :: p.p_idle;
  Mutex.unlock p.p_lock

let close state =
  Array.iter
    (fun p ->
      Mutex.lock p.p_lock;
      List.iter Client.close p.p_idle;
      p.p_idle <- [];
      Mutex.unlock p.p_lock)
    state.pools

(* The budget a shard hop gets: the time left before [deadline] in
   whole milliseconds, rounded up — [Some 0] once it is spent. *)
let time_left =
  Option.map (fun d ->
      max 0 (int_of_float (Float.ceil ((d -. Unix.gettimeofday ()) *. 1000.))))

(* What a shard hop answers when the request's budget is spent: the
   router never forwards it, so no shard is contacted. *)
let spent_body () = err P.Deadline_exceeded "deadline exceeded before a shard hop"
let spent = P.response (spent_body ())

(* One request to one shard, with the time left checked before the
   connect and again before the send. A transport failure on a pooled
   connection may only mean the shard restarted since the connection was
   cached, so the request is retried once on a fresh connection before
   the shard is declared unreachable. *)
let shard_call state i ~deadline ~trace_id request =
  let once conn =
    match time_left deadline with
    | Some 0 ->
        put_conn state i conn;
        Ok spent
    | deadline_ms -> (
        match Client.call_response conn ?deadline_ms ~trace_id request with
        | Ok resp ->
            put_conn state i conn;
            Ok resp
        | Error f ->
            Client.close conn;
            Error (Client.failure_to_string f))
  in
  if time_left deadline = Some 0 then Ok spent
  else
    match take_conn state i with
    | Error msg -> Error msg
    | Ok conn -> (
        match once conn with
        | Ok resp -> Ok resp
        | Error _ -> (
            match
              Client.connect ~codec:P.Binary ~retry_ms:state.connect_retry_ms
                state.pools.(i).p_addr
            with
            | Error msg -> Error msg
            | Ok fresh -> once fresh))

(* Fan a request constructor out over shard indices, one thread per
   shard, and collect (index, result) pairs in index order. *)
let scatter targets f =
  let slots = Array.make (List.length targets) None in
  let threads =
    List.mapi
      (fun k i -> Thread.create (fun () -> slots.(k) <- Some (i, f i)) ())
      targets
  in
  List.iter Thread.join threads;
  Array.to_list slots |> List.filter_map Fun.id

let all_shards state = List.init (Shard_map.n state.map) Fun.id

(* ------------------------------------------------------------------ *)
(* Payload accessors                                                   *)

let jnum v = Option.bind v J.to_num
let jstr v = Option.bind v J.to_str
let num_field payload name = Option.value (jnum (J.member name payload)) ~default:0.

let trees_of_payload payload =
  match Option.bind (J.member "trees" payload) J.to_list with
  | None -> Ok []
  | Some items ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | x :: rest -> (
            match J.to_str x with
            | None -> err P.Internal "shard returned a non-string tree"
            | Some xml -> (
                match Parser.parse xml with
                | Ok t -> go (t :: acc) rest
                | Error e ->
                    err P.Internal "shard returned unparseable tree: %s"
                      (Format.asprintf "%a" Parser.pp_error e)))
      in
      go [] items

let shard_entry state i resp count =
  J.Obj
    [
      ("shard", J.Num (float_of_int i));
      ("addr", J.Str (Shard_map.addr state.map i));
      ("server_ms", J.Num (Option.value resp.P.server_ms ~default:0.));
      ("queue_ms", J.Num (Option.value resp.P.queue_ms ~default:0.));
      ("count", J.Num count);
    ]

let partial_fields state failed =
  if failed = [] then []
  else
    [
      ("partial", J.Bool true);
      ( "failed",
        J.Arr
          (List.map
             (fun i -> J.Str (Shard_map.addr state.map i))
             failed) );
    ]

(* ------------------------------------------------------------------ *)
(* Fan-out + merge                                                     *)

(* Splits scatter results into transport failures and shard answers,
   enforcing the partial-result contract: any unreachable shard fails
   the request with [shard_unavailable] unless the client opted into
   partial results — and even then at least one shard must answer. *)
let gathered state ~allow_partial results k =
  let failed =
    List.filter_map
      (fun (i, r) -> match r with Error _ -> Some i | Ok _ -> None)
      results
  in
  List.iter
    (fun i -> Metrics.incr (m_shard_fail (string_of_int i)))
    failed;
  let answered =
    List.filter_map
      (fun (i, r) -> match r with Ok resp -> Some (i, resp) | Error _ -> None)
      results
  in
  match (failed, answered) with
  | [], _ -> k ~failed:[] answered
  | _ :: _, [] ->
      err P.Shard_unavailable "no shard reachable (%d of %d down)"
        (List.length failed) (List.length results)
  | i :: _, _ when not allow_partial ->
      let msg =
        match List.assoc_opt i results with
        | Some (Error m) -> m
        | _ -> "unreachable"
      in
      err P.Shard_unavailable
        "shard %d (%s) unreachable: %s (send \"allow_partial\":true to \
         accept a partial result)"
        i
        (Shard_map.addr state.map i)
        msg
  | failed, answered -> k ~failed answered

(* A partitioned fan-out read: [unknown_collection] from a shard means
   "my partition is empty" unless every shard says it; any other wire
   error propagates as the request's answer. *)
let split_bodies answered =
  let wire_err =
    List.find_map
      (fun (_, resp) ->
        match resp.P.body with
        | Error e when e.P.code <> P.Unknown_collection -> Some e
        | _ -> None)
      answered
  in
  match wire_err with
  | Some e -> Error e
  | None ->
      let oks =
        List.filter_map
          (fun (i, resp) ->
            match resp.P.body with
            | Ok payload -> Some (i, resp, payload)
            | Error _ -> None)
          answered
      in
      if oks <> [] then Ok oks
      else
        (* every shard answered [unknown_collection] — propagate it *)
        match answered with
        | (_, resp) :: _ -> (
            match resp.P.body with Error e -> Error e | Ok _ -> assert false)
        | [] -> Error (P.error P.Shard_unavailable "no shard answered")

(* Every fan-out read merges the same way: parse each answering shard's
   trees and canonicalize their union, take the slowest shard's
   [compute_ms], and list each shard's contribution. [own] gives the
   op's own fields — those before the shared ones and those after —
   from the answering shards' payloads. *)
let merge state ~failed answered own =
  let* oks = split_bodies answered in
  let rec collect acc = function
    | [] -> Ok (List.rev acc)
    | (i, resp, payload) :: rest ->
        let* trees = trees_of_payload payload in
        collect ((i, resp, payload, trees) :: acc) rest
  in
  let* parts = collect [] oks in
  let payloads = List.map (fun (_, _, p, _) -> p) parts in
  let merged = Witness.canonical (List.concat_map (fun (_, _, _, ts) -> ts) parts) in
  let compute_ms =
    List.fold_left (fun acc p -> Float.max acc (num_field p "compute_ms")) 0. payloads
  in
  let shards =
    List.map (fun (i, resp, p, _) -> shard_entry state i resp (num_field p "count")) parts
  in
  let before, after = own payloads in
  Ok
    (J.Obj
       (before
       @ [
           ("count", J.Num (float_of_int (List.length merged)));
           ("compute_ms", J.Num compute_ms);
           ( "trees",
             J.Arr
               (List.map (fun t -> J.Str (Printer.to_string ~decl:false t)) merged) );
           ("shards", J.Arr shards);
         ]
       @ after @ partial_fields state failed))

let merge_query state ~collection ~failed answered =
  merge state ~failed answered (fun payloads ->
      let version =
        List.fold_left (fun acc p -> acc +. num_field p "version") 0. payloads
      in
      let status = List.map (fun p -> jstr (J.member "cache" p)) payloads in
      let cache =
        if List.for_all (( = ) (Some "hit")) status then "hit"
        else if List.mem (Some "miss") status then "miss"
        else "delta"
      in
      ( [ ("collection", J.Str collection); ("version", J.Num version) ],
        [ ("cache", J.Str cache) ] ))

let merge_join state ~left ~right ~failed answered =
  merge state ~failed answered (fun payloads ->
      (* A partitioned side's total version is the sum of its
         partitions; a replicated side's copies all report the same
         version, so the max is the true value. *)
      let version side field =
        let combine =
          if Shard_map.replicated state.map side then Float.max else ( +. )
        in
        List.fold_left (fun acc p -> combine acc (num_field p field)) 0. payloads
      in
      ( [
          ("left", J.Str left);
          ("right", J.Str right);
          ("left_version", J.Num (version left "left_version"));
          ("right_version", J.Num (version right "right_version"));
        ],
        [] ))

(* ------------------------------------------------------------------ *)
(* Operations                                                          *)

let next_seq state collection =
  match Hashtbl.find_opt state.seqs collection with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add state.seqs collection r;
      r

let reject_shadow collection k =
  if Shard_map.is_shadow collection then
    err P.Bad_request
      "collection %S is in the router's reserved vocabulary-shadow \
       namespace"
      collection
  else k ()

let do_insert state ~deadline ~trace_id ~collection ~xml =
  reject_shadow collection @@ fun () ->
  Mutex.lock state.ins_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock state.ins_lock)
    (fun () ->
      let map = state.map in
      if Shard_map.replicated map collection then begin
        (* Every replica must apply the insert; inserts are never
           partial. So the budget is checked once, before anything is
           sent, and the replicas get no deadline: a replica whose own
           hop found the budget spent would miss a document the others
           stored. *)
        match time_left deadline with
        | Some 0 -> spent_body ()
        | _ ->
            let results =
              scatter (all_shards state) (fun i ->
                  shard_call state i ~deadline:None ~trace_id
                    (P.Insert { collection; xml }))
            in
            let rec first_answer = function
              | [] -> err P.Shard_unavailable "no shard reachable"
              | (i, Error msg) :: _ ->
                  Metrics.incr (m_shard_fail (string_of_int i));
                  err P.Shard_unavailable "shard %d (%s) unreachable: %s" i
                    (Shard_map.addr map i) msg
              | (_, Ok resp) :: rest -> (
                  match resp.P.body with
                  | Error e -> Error e
                  | Ok payload ->
                      if rest = [] then Ok payload else first_answer rest)
            in
            first_answer results
      end
      else begin
        let seq = next_seq state collection in
        let owner = Shard_map.owner map ~collection ~seq:!seq in
        (* owner first: it validates the XML, and a rejected insert must
           not leave shadows (or bump the sequence) anywhere *)
        match
          shard_call state owner ~deadline ~trace_id
            (P.Insert { collection; xml })
        with
        | Error msg ->
            Metrics.incr (m_shard_fail (string_of_int owner));
            err P.Shard_unavailable "shard %d (%s) unreachable: %s" owner
              (Shard_map.addr map owner) msg
        | Ok { P.body = Error e; _ } -> Error e
        | Ok { P.body = Ok _; _ } -> (
            let doc_id = !seq in
            incr seq;
            let others =
              List.filter (fun i -> i <> owner) (all_shards state)
            in
            let shadow = Shard_map.shadow collection in
            (* The insert has committed on its owner, so its mirror is
               sent without a deadline: a shadow cut short by the budget
               would leave the shard ontologies diverged. *)
            let results =
              scatter others (fun i ->
                  shard_call state i ~deadline:None ~trace_id
                    (P.Insert { collection = shadow; xml }))
            in
            let failure =
              List.find_map
                (fun (i, r) ->
                  match r with
                  | Error msg -> Some (i, P.error P.Shard_unavailable msg)
                  | Ok { P.body = Error e; _ } -> Some (i, e)
                  | Ok _ -> None)
                results
            in
            match failure with
            | Some (i, e) ->
                (* the document is stored, but shard [i]'s ontology no
                   longer sees the full vocabulary — surface it loudly *)
                Metrics.incr (m_shard_fail (string_of_int i));
                err P.Shard_unavailable
                  "vocabulary mirror to shard %d (%s) failed (%s): shard \
                   ontologies may diverge until it is re-inserted"
                  i (Shard_map.addr map i) e.P.message
            | None ->
                Ok
                  (J.Obj
                     [
                       ("collection", J.Str collection);
                       ("doc_id", J.Num (float_of_int doc_id));
                       ("version", J.Num (float_of_int (doc_id + 1)));
                       ("shard", J.Num (float_of_int owner));
                     ]))
      end)

(* A replicated read needs any one healthy replica: walk the map in
   order, failing over on transport errors only. *)
let replicated_call state ~deadline ~trace_id request =
  let rec go = function
    | [] -> err P.Shard_unavailable "no shard reachable"
    | i :: rest -> (
        match shard_call state i ~deadline ~trace_id request with
        | Ok resp -> resp.P.body
        | Error _ ->
            Metrics.incr (m_shard_fail (string_of_int i));
            go rest)
  in
  go (all_shards state)

let do_query state ~deadline ~trace_id ~allow_partial ~collection ~tql
    ~mode ~cache =
  reject_shadow collection @@ fun () ->
  let request = P.Query { collection; tql; mode; cache } in
  if Shard_map.replicated state.map collection then
    replicated_call state ~deadline ~trace_id request
  else
    let results =
      scatter (all_shards state) (fun i ->
          shard_call state i ~deadline ~trace_id request)
    in
    gathered state ~allow_partial results (fun ~failed answered ->
        merge_query state ~collection ~failed answered)

let do_join state ~deadline ~trace_id ~allow_partial ~left ~right ~tql
    ~mode =
  reject_shadow left @@ fun () ->
  reject_shadow right @@ fun () ->
  let map = state.map in
  let request = P.Join { left; right; tql; mode } in
  let lrep = Shard_map.replicated map left
  and rrep = Shard_map.replicated map right in
  if Shard_map.n map = 1 || (lrep && rrep) then
    replicated_call state ~deadline ~trace_id request
  else if lrep || rrep then
    let results =
      scatter (all_shards state) (fun i ->
          shard_call state i ~deadline ~trace_id request)
    in
    gathered state ~allow_partial results (fun ~failed answered ->
        merge_join state ~left ~right ~failed answered)
  else
    err P.Query_error
      "join of two partitioned collections is not supported: replicate \
       one side (--replicate %s or --replicate %s) to make the \
       broadcast join exact"
      left right

let do_explain state ~deadline ~trace_id ~collection ~tql ~mode =
  reject_shadow collection @@ fun () ->
  let request = P.Explain { collection; tql; mode } in
  let rec go last = function
    | [] -> (
        match last with
        | Some e -> Error e
        | None -> err P.Shard_unavailable "no shard reachable")
    | i :: rest -> (
        match shard_call state i ~deadline ~trace_id request with
        | Error _ ->
            Metrics.incr (m_shard_fail (string_of_int i));
            go last rest
        | Ok resp -> (
            match resp.P.body with
            | Error ({ P.code = P.Unknown_collection; _ } as e) ->
                (* this shard owns no partition of the collection; the
                   plan lives wherever the data does *)
                go (Some e) rest
            | body -> body))
  in
  go None (all_shards state)

let do_stats () =
  let snap = Metrics.snapshot () in
  Ok
    (J.Obj
       [
         ("metrics", Metrics.to_json snap);
         ("table", J.Str (Metrics.to_table snap));
       ])

(* Prometheus merge: each shard's exposition re-labelled with
   shard="N" (the router's own samples with shard="router"), # HELP/#
   TYPE comments kept once per metric name. *)
let relabel ~shard ~seen text =
  let buf = Buffer.create (String.length text + 256) in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         if line = "" then ()
         else if String.length line > 0 && line.[0] = '#' then begin
           (* "# TYPE name kind" / "# HELP name text" *)
           let keep =
             match String.split_on_char ' ' line with
             | "#" :: kind :: name :: _ ->
                 let key = kind ^ " " ^ name in
                 if Hashtbl.mem seen key then false
                 else begin
                   Hashtbl.add seen key ();
                   true
                 end
             | _ -> true
           in
           if keep then begin
             Buffer.add_string buf line;
             Buffer.add_char buf '\n'
           end
         end
         else begin
           (match String.index_opt line '{' with
           | Some b ->
               Buffer.add_string buf (String.sub line 0 (b + 1));
               Buffer.add_string buf (Printf.sprintf "shard=%S," shard);
               Buffer.add_string buf
                 (String.sub line (b + 1) (String.length line - b - 1))
           | None -> (
               match String.index_opt line ' ' with
               | Some sp ->
                   Buffer.add_string buf (String.sub line 0 sp);
                   Buffer.add_string buf (Printf.sprintf "{shard=%S}" shard);
                   Buffer.add_string buf
                     (String.sub line sp (String.length line - sp))
               | None -> Buffer.add_string buf line));
           Buffer.add_char buf '\n'
         end);
  Buffer.contents buf

let do_metrics state ~deadline ~trace_id ~allow_partial =
  let results =
    scatter (all_shards state) (fun i ->
        shard_call state i ~deadline ~trace_id P.Metrics)
  in
  gathered state ~allow_partial results (fun ~failed answered ->
      match split_bodies answered with
      | Error e -> Error e
      | Ok oks ->
          let seen = Hashtbl.create 64 in
          let own =
            relabel ~shard:"router" ~seen
              (Metrics.to_prometheus (Metrics.snapshot ()))
          in
          let per_shard =
            List.map
              (fun (i, _, payload) ->
                let text =
                  Option.value (jstr (J.member "prometheus" payload)) ~default:""
                in
                relabel ~shard:(string_of_int i) ~seen text)
              oks
          in
          Ok
            (J.Obj
               ([ ("prometheus", J.Str (String.concat "" (own :: per_shard))) ]
               @ partial_fields state failed)))

let do_shutdown state ~deadline ~trace_id =
  ignore
    (scatter (all_shards state) (fun i ->
         shard_call state i ~deadline ~trace_id P.Shutdown));
  Ok (J.Obj [ ("stopping", J.Bool true) ])

let route state ~deadline ~trace_id (env : P.envelope) =
  let allow_partial = env.P.allow_partial in
  match env.P.request with
  | P.Ping -> Ok (J.Obj [ ("pong", J.Bool true) ])
  | P.Insert { collection; xml } ->
      do_insert state ~deadline ~trace_id ~collection ~xml
  | P.Query { collection; tql; mode; cache } ->
      do_query state ~deadline ~trace_id ~allow_partial ~collection ~tql
        ~mode ~cache
  | P.Join { left; right; tql; mode } ->
      do_join state ~deadline ~trace_id ~allow_partial ~left ~right ~tql
        ~mode
  | P.Explain { collection; tql; mode } ->
      do_explain state ~deadline ~trace_id ~collection ~tql ~mode
  | P.Stats -> do_stats ()
  | P.Metrics -> do_metrics state ~deadline ~trace_id ~allow_partial
  | P.Shutdown -> do_shutdown state ~deadline ~trace_id

let dispatch state ~deadline ~trace_id (env : P.envelope) =
  let op = P.op_name env.P.request in
  Metrics.incr (m_requests op);
  let t0 = Unix.gettimeofday () in
  let body = route state ~deadline ~trace_id env in
  Metrics.observe (h_seconds op) (Unix.gettimeofday () -. t0);
  (match body with
  | Error e -> Metrics.incr (m_errors (P.code_name e.P.code))
  | Ok _ -> ());
  (body, None)
