(* Tests for the query server: wire protocol, result cache, worker
   pool, engine semantics (deadlines, cache extension, durable
   hydration), and a live-socket concurrency stress test whose every
   answer is replayed against a single-threaded engine. *)

module J = Toss_json
module Protocol = Toss_server.Protocol
module Cache = Toss_server.Cache
module Pool = Toss_server.Pool
module Engine = Toss_server.Engine
module Server = Toss_server.Server
module Client = Toss_server.Client
module Session = Toss_core.Session
module Executor = Toss_core.Executor
module Parser = Toss_xml.Parser
module Tree = Toss_xml.Tree
module Metrics = Toss_obs.Metrics
module Transport = Toss_server.Transport
module Shard_map = Toss_shard.Shard_map
module Router = Toss_shard.Router
module Loadgen = Toss_shard.Loadgen

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let temp_name prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  path

(* ------------------------------------------------------------------ *)
(* Protocol                                                             *)
(* ------------------------------------------------------------------ *)

let test_protocol_roundtrip () =
  let envs =
    [
      { Protocol.id = None; deadline_ms = None; trace_id = None; allow_partial = false; request = Protocol.Ping };
      {
        Protocol.id = Some 7;
        deadline_ms = Some 250;
        trace_id = Some "req-7";
        allow_partial = false;
        request = Protocol.Stats;
      };
      {
        Protocol.id = Some 1;
        deadline_ms = None;
        trace_id = None;
        allow_partial = false;
        request = Protocol.Insert { collection = "bib"; xml = "<a b=\"c\">x</a>" };
      };
      {
        Protocol.id = None;
        deadline_ms = Some 10;
        trace_id = Some "0123456789abcdef";
        allow_partial = false;
        request =
          Protocol.Query
            {
              collection = "bib";
              tql = "MATCH #1:a SELECT #1";
              mode = Executor.Tax;
              cache = false;
            };
      };
      {
        Protocol.id = Some 3;
        deadline_ms = None;
        trace_id = None;
        allow_partial = false;
        request =
          Protocol.Explain
            { collection = "c"; tql = "MATCH #1:a SELECT #1"; mode = Executor.Toss };
      };
      { Protocol.id = None; deadline_ms = None; trace_id = None; allow_partial = false; request = Protocol.Shutdown };
      { Protocol.id = None; deadline_ms = None; trace_id = None; allow_partial = false; request = Protocol.Metrics };
    ]
  in
  List.iter
    (fun env ->
      let line = Protocol.request_to_line env in
      match Protocol.parse_request line with
      | Error e -> Alcotest.fail (line ^ ": " ^ e.Protocol.message)
      | Ok env' -> checkb ("round-trip " ^ line) true (env = env'))
    envs

let code_of = function
  | Error e -> Protocol.code_name e.Protocol.code
  | Ok _ -> "ok"

let test_protocol_errors () =
  checks "not json" "parse_error" (code_of (Protocol.parse_request "nope"));
  checks "not an object" "bad_request" (code_of (Protocol.parse_request "[1]"));
  checks "no op" "bad_request" (code_of (Protocol.parse_request "{}"));
  checks "unknown op" "bad_request"
    (code_of (Protocol.parse_request {|{"op":"frobnicate"}|}));
  checks "missing field" "bad_request"
    (code_of (Protocol.parse_request {|{"op":"insert","collection":"c"}|}));
  checks "wrong type" "bad_request"
    (code_of (Protocol.parse_request {|{"op":"query","collection":"c","tql":3}|}));
  checks "bad mode" "bad_request"
    (code_of
       (Protocol.parse_request
          {|{"op":"query","collection":"c","tql":"q","mode":"turbo"}|}))

let test_response_roundtrip () =
  let responses =
    [
      Protocol.response ~id:4 (Ok (J.Obj [ ("pong", J.Bool true) ]));
      Protocol.response ~trace_id:"0123456789abcdef" ~server_ms:1.25
        ~queue_ms:0.5
        (Ok (J.Obj [ ("pong", J.Bool true) ]));
      Protocol.response (Error (Protocol.error Protocol.Overloaded "queue full"));
    ]
  in
  List.iter
    (fun r ->
      match Protocol.parse_response (Protocol.response_to_line r) with
      | Error msg -> Alcotest.fail msg
      | Ok r' -> checkb "response round-trip" true (r = r'))
    responses

(* ------------------------------------------------------------------ *)
(* Cache                                                                *)
(* ------------------------------------------------------------------ *)

let key ?(mode = "toss") tql = { Cache.collection = "c"; config = "eps=2"; mode; tql }
let seo_a = Toss_core.Seo.create_exn Toss_ontology.Ontology.empty
let seo_b = Toss_core.Seo.create_exn Toss_ontology.Ontology.empty

let publish ?(seo = seo_a) c tql version tree =
  Cache.publish c (key tql) ~seo
    { Cache.version; trees = [ J.Str tree ]; count = 1; compute_ms = 0. }

let status = function
  | Cache.Hit e -> "hit " ^ string_of_int e.Cache.version
  | Cache.Delta e -> "delta " ^ string_of_int e.Cache.version
  | Cache.Miss -> "miss"

let test_cache_basics () =
  let c = Cache.create ~capacity:2 () in
  let find ?(seo = seo_a) ?(version = 1) tql =
    status (Cache.find c (key tql) ~version ~seo)
  in
  checks "cold miss" "miss" (find "q1");
  publish c "q1" 1 "r1";
  checks "hit" "hit 1" (find "q1");
  checks "a newer version extends" "delta 1" (find ~version:3 "q1");
  checks "an older version misses" "miss" (find ~version:0 "q1");
  checks "another SEO misses" "miss" (find ~seo:seo_b "q1");
  checks "another SEO never extends" "miss" (find ~seo:seo_b ~version:3 "q1");
  checkb "mode isolates" true
    (Cache.find c (key ~mode:"tax" "q1") ~version:1 ~seo:seo_a = Cache.Miss);
  publish c "q1" 3 "r1'";
  checks "republished at the newer version" "hit 3" (find ~version:3 "q1");
  publish c "q1" 2 "stale";
  checks "publish never lowers a version" "hit 3" (find ~version:3 "q1");
  publish c "q2" 1 "r2";
  publish c "q3" 1 "r3";
  (* capacity 2: q1 was oldest and is gone *)
  checki "bounded" 2 (Cache.size c);
  checks "fifo evicted q1" "miss" (find ~version:3 "q1");
  checks "q3 present" "hit 1" (find "q3");
  let off = Cache.create ~capacity:0 () in
  publish off "q1" 1 "r";
  checkb "capacity 0 stores nothing" true
    (Cache.find off (key "q1") ~version:1 ~seo:seo_a = Cache.Miss)

(* An entry holds its SEO weakly: once nothing else does, the GC takes
   it (and the entry can only miss). *)
let publish_under_fresh_seo c collected =
  let seo = Toss_core.Seo.create_exn Toss_ontology.Ontology.empty in
  Gc.finalise (fun _ -> collected := true) seo;
  publish ~seo c "q" 1 "r"

let test_cache_holds_seo_weakly () =
  let c = Cache.create () and collected = ref false in
  publish_under_fresh_seo c collected;
  Gc.full_major ();
  checkb "the SEO was collected" true !collected;
  checki "the entry stays" 1 (Cache.size c);
  checkb "and misses" true (Cache.find c (key "q") ~version:1 ~seo:seo_a = Cache.Miss)

let test_cache_order_bounded () =
  (* Republishing a key in place, as every delta does, keeps one slot
     and its place in the eviction order. *)
  let c = Cache.create ~capacity:2 () in
  for v = 1 to 200 do
    publish c "q" v "r"
  done;
  checki "one key, one entry" 1 (Cache.size c);
  publish c "q1" 1 "r1";
  publish c "q" 201 "r";
  publish c "q2" 1 "r2";
  checki "bounded" 2 (Cache.size c);
  checkb "the first key in is the first out" true
    (Cache.find c (key "q") ~version:201 ~seo:seo_a = Cache.Miss);
  checks "the others stay" "hit 1"
    (status (Cache.find c (key "q1") ~version:1 ~seo:seo_a))

(* ------------------------------------------------------------------ *)
(* Pool                                                                 *)
(* ------------------------------------------------------------------ *)

let test_pool_runs_jobs () =
  let pool = Pool.create ~domains:2 ~max_queue:64 in
  let lock = Mutex.create () in
  let count = ref 0 in
  for _ = 1 to 20 do
    match
      Pool.submit pool (fun ~queue_wait_s ->
          Mutex.lock lock;
          if queue_wait_s >= 0. then incr count;
          Mutex.unlock lock)
    with
    | Pool.Accepted -> ()
    | Pool.Overloaded | Pool.Stopped -> Alcotest.fail "unexpected refusal"
  done;
  Pool.stop pool;
  checki "all accepted jobs ran before stop returned" 20 !count;
  checkb "stopped pool refuses" true
    (Pool.submit pool (fun ~queue_wait_s:_ -> ()) = Pool.Stopped)

let test_pool_sheds () =
  (* No domains, no queue: admission control is the whole story. *)
  let pool = Pool.create ~domains:0 ~max_queue:0 in
  let noop ~queue_wait_s:_ = () in
  checkb "shed" true (Pool.submit pool noop = Pool.Overloaded);
  Pool.stop pool;
  (* One slot, no domains: first queues, second sheds. *)
  let pool = Pool.create ~domains:0 ~max_queue:1 in
  checkb "first queues" true (Pool.submit pool noop = Pool.Accepted);
  checkb "second sheds" true (Pool.submit pool noop = Pool.Overloaded)

(* ------------------------------------------------------------------ *)
(* Engine                                                               *)
(* ------------------------------------------------------------------ *)

let paper i =
  Printf.sprintf "<paper><author>Name%d</author><title>T%d</title></paper>" i i

let tql = "MATCH #1:paper(/#2:author) WHERE #2.content ~ \"Name1\" SELECT #1"

let exec_ok engine request =
  match Engine.exec engine ~deadline:None request with
  | Ok payload -> payload
  | Error e -> Alcotest.fail (Protocol.code_name e.Protocol.code ^ ": " ^ e.Protocol.message)

let query_request ?(cache = true) tql =
  Protocol.Query { collection = "bib"; tql; mode = Executor.Toss; cache }

let member_str name payload = Option.bind (J.member name payload) J.to_str
let member_int name payload = Option.bind (J.member name payload) J.to_int

let test_engine_cache_and_extension () =
  let engine = Result.get_ok (Engine.create ()) in
  (match Engine.exec engine ~deadline:None (query_request tql) with
  | Error e -> checks "unknown collection" "unknown_collection" (Protocol.code_name e.Protocol.code)
  | Ok _ -> Alcotest.fail "expected unknown_collection");
  let ins =
    exec_ok engine (Protocol.Insert { collection = "bib"; xml = paper 1 })
  in
  checkb "insert returns doc_id" true (member_int "doc_id" ins = Some 0);
  checkb "insert returns version" true (member_int "version" ins = Some 1);
  let r1 = exec_ok engine (query_request tql) in
  checkb "first query misses" true (member_str "cache" r1 = Some "miss");
  checkb "one result" true (member_int "count" r1 = Some 1);
  let r2 = exec_ok engine (query_request tql) in
  checkb "second query hits" true (member_str "cache" r2 = Some "hit");
  checkb "hit payload agrees" true
    (member_int "count" r2 = member_int "count" r1);
  let r3 = exec_ok engine (query_request ~cache:false tql) in
  checkb "cache:false bypasses" true (member_str "cache" r3 = Some "miss");
  (* A copy brings no new vocabulary, so the SEO stays and the entry is
     extended by the new document's answer. *)
  ignore (exec_ok engine (Protocol.Insert { collection = "bib"; xml = paper 1 }));
  let r4, trace =
    Engine.exec_traced engine ~deadline:None ~trace_id:"delta"
      {
        Protocol.id = None;
        deadline_ms = None;
        trace_id = None;
        allow_partial = false;
        request = query_request tql;
      }
  in
  let r4 = Result.get_ok r4 in
  checkb "an absorbed insert extends the entry" true (member_str "cache" r4 = Some "delta");
  checkb "the delta ran from the new document" true
    (Option.map (fun (t : Toss_obs.Span.t) -> List.assoc_opt "from_doc" t.Toss_obs.Span.meta) trace
    = Some (Some "1"));
  checkb "new version visible" true (member_int "version" r4 = Some 2);
  checkb "the copy matches too" true (member_int "count" r4 = Some 2);
  checkb "the delta answer equals a recompute" true
    (J.member "trees" r4 = J.member "trees" (exec_ok engine (query_request ~cache:false tql)));
  checkb "then hits" true (member_str "cache" (exec_ok engine (query_request tql)) = Some "hit");
  (* A new author is new vocabulary: another SEO, so the entry misses. *)
  ignore (exec_ok engine (Protocol.Insert { collection = "bib"; xml = paper 2 }));
  let r5 = exec_ok engine (query_request tql) in
  checkb "a new SEO recomputes" true (member_str "cache" r5 = Some "miss");
  checkb "every similar author matches" true (member_int "count" r5 = Some 3)

let test_engine_cache_follows_the_seo () =
  (* The SEO is built over every collection, so an insert into another
     collection can change this one's answer at an unchanged version:
     "Mario Garcia" is not a term until [rev] brings it, and then SEA
     puts it in "Maria Garcia"'s cluster. The cached answer must not
     outlive the SEO it was computed under. *)
  let engine = Result.get_ok (Engine.create ()) in
  let insert collection author =
    ignore
      (exec_ok engine
         (Protocol.Insert
            { collection; xml = Printf.sprintf "<paper><author>%s</author></paper>" author }))
  in
  let q = {|MATCH #1:paper(/#2:author) WHERE #2.content ~ "Mario Garcia" SELECT #1|} in
  insert "bib" "Maria Garcia";
  checkb "unknown constant: no match" true
    (member_int "count" (exec_ok engine (query_request q)) = Some 0);
  insert "rev" "Mario Garcia";
  let r = exec_ok engine (query_request q) in
  checkb "same version" true (member_int "version" r = Some 1);
  checkb "another SEO: recomputed" true (member_str "cache" r = Some "miss");
  checkb "now similar" true (member_int "count" r = Some 1);
  checkb "equal to an uncached answer" true
    (J.member "trees" r = J.member "trees" (exec_ok engine (query_request ~cache:false q)))

let test_engine_deadline () =
  let engine = Result.get_ok (Engine.create ()) in
  ignore (exec_ok engine (Protocol.Insert { collection = "bib"; xml = paper 1 }));
  match
    Engine.exec engine ~deadline:(Some (Unix.gettimeofday () -. 1.))
      (query_request tql)
  with
  | Error e ->
      checks "typed error" "deadline_exceeded" (Protocol.code_name e.Protocol.code)
  | Ok _ -> Alcotest.fail "expected deadline_exceeded"

let test_engine_explain_and_stats () =
  let engine = Result.get_ok (Engine.create ()) in
  ignore (exec_ok engine (Protocol.Insert { collection = "bib"; xml = paper 1 }));
  let e =
    exec_ok engine
      (Protocol.Explain
         { collection = "bib"; tql; mode = Executor.Toss })
  in
  checkb "explain has a plan" true (J.member "plan" e <> None);
  let s = exec_ok engine Protocol.Stats in
  checkb "stats carries the table" true (member_str "table" s <> None);
  checkb "stats carries metrics json" true (J.member "metrics" s <> None)

(* The cache against no cache: one generated sequence of inserts and
   queries runs through an engine with its result cache and through one
   at capacity 0, and every step must agree — the same versions, the
   same trees in the same order. Inserts are re-keyed copies (absorbed:
   the SEO stays, so cached entries extend), documents drawn from a
   near-miss pool of authors (new vocabulary: a new SEO, so entries
   miss) and inserts into a second collection (a new SEO for the first
   one's entries at an unchanged version). *)
type cache_op =
  | Copy of int  (** re-key the i-th (mod n) document of [bib] and insert it *)
  | Fresh of int * int  (** a new [bib] document: author and title indexes *)
  | Other of int * int  (** the same into the second collection *)
  | Read of Executor.mode * int * int  (** mode, template, constant *)

let near_miss_authors =
  [| "Maria Garcia"; "Mario Garcia"; "Marie Garcia"; "Maria Garcla"; "John Smith"; "Jon Smith" |]

let near_miss_titles = [| "Query Processing"; "Query Procesing"; "Data Mining" |]

let read_templates =
  [|
    Printf.sprintf {|MATCH #1:paper(/#2:author) WHERE #2.content ~ "%s" SELECT #1|};
    Printf.sprintf {|MATCH #1:paper(/#2:author) WHERE #2.content ~ "%s" PROJECT #2|};
    Printf.sprintf
      {|MATCH #1:paper(/#2:author, /#3:title) WHERE #2.content ~ "%s" OR #3.content ~ "Query Processing" SELECT #1,#3|};
  |]

let cache_op_to_string = function
  | Copy i -> Printf.sprintf "Copy %d" i
  | Fresh (a, t) -> Printf.sprintf "Fresh (%d, %d)" a t
  | Other (a, t) -> Printf.sprintf "Other (%d, %d)" a t
  | Read (m, q, c) ->
      Printf.sprintf "Read (%s, %d, %d)" (if m = Executor.Tax then "Tax" else "Toss") q c

let gen_cache_ops =
  QCheck2.Gen.(
    let pick a = int_range 0 (Array.length a - 1) in
    let op =
      frequency
        [
          (3, map (fun i -> Copy i) (int_range 0 9));
          (1, map2 (fun a t -> Fresh (a, t)) (pick near_miss_authors) (pick near_miss_titles));
          (1, map2 (fun a t -> Other (a, t)) (pick near_miss_authors) (pick near_miss_titles));
          ( 6,
            map3
              (fun tax q c -> Read ((if tax then Executor.Tax else Executor.Toss), q, c))
              (frequency [ (1, return true); (3, return false) ])
              (pick read_templates) (int_range 0 2) );
        ]
    in
    map (fun ops -> Fresh (0, 0) :: ops) (list_size (int_range 1 14) op))

(* Runs the sequence; [Error] names the first step where the engines
   disagree. Each cached read's status is counted in [seen]. *)
let run_cache_ops seen ops =
  let cached = Result.get_ok (Engine.create ()) in
  let plain = Result.get_ok (Engine.create ~cache_capacity:0 ()) in
  let docs = ref [||] and next_key = ref 0 in
  let doc a t =
    incr next_key;
    Printf.sprintf "<paper key=\"k%d\"><author>%s</author><title>%s</title></paper>" !next_key
      near_miss_authors.(a) near_miss_titles.(t)
  in
  let field name r = Option.map J.to_string (J.member name r) in
  let step i op =
    let request =
      match op with
      | Copy k ->
          let a, t = !docs.(k mod Array.length !docs) in
          docs := Array.append !docs [| (a, t) |];
          Protocol.Insert { collection = "bib"; xml = doc a t }
      | Fresh (a, t) ->
          docs := Array.append !docs [| (a, t) |];
          Protocol.Insert { collection = "bib"; xml = doc a t }
      | Other (a, t) -> Protocol.Insert { collection = "rev"; xml = doc a t }
      | Read (mode, q, c) ->
          Protocol.Query
            {
              collection = "bib";
              tql = read_templates.(q) near_miss_authors.(c);
              mode;
              cache = true;
            }
    in
    match (Engine.exec cached ~deadline:None request, Engine.exec plain ~deadline:None request) with
    | Ok a, Ok b ->
        Option.iter
          (fun s -> Hashtbl.replace seen s ())
          (Option.bind (J.member "cache" a) J.to_str);
        if List.for_all (fun f -> field f a = field f b) [ "version"; "doc_id"; "trees" ] then Ok ()
        else
          Error
            (Printf.sprintf "step %d (%s): cached %s, uncached %s" i (cache_op_to_string op)
               (J.to_string a) (J.to_string b))
    | _ -> Error (Printf.sprintf "step %d (%s) failed" i (cache_op_to_string op))
  in
  let rec go i = function
    | [] -> Ok ()
    | op :: rest -> ( match step i op with Ok () -> go (i + 1) rest | e -> e)
  in
  go 0 ops

let cache_ops_prop ?(count = 150) seen =
  QCheck2.Test.make ~count ~name:"cached engine answers as an uncached one"
    ~print:(fun ops -> String.concat "; " (List.map cache_op_to_string ops))
    gen_cache_ops
    (fun ops ->
      match run_cache_ops seen ops with
      | Ok () -> true
      | Error msg -> QCheck2.Test.fail_report msg)

let test_cache_ops_equal_uncached () =
  let seen = Hashtbl.create 3 in
  QCheck2.Test.check_exn ~rand:(Random.State.make [| 35 |]) (cache_ops_prop seen);
  List.iter
    (fun s -> checkb (s ^ " occurs") true (Hashtbl.mem seen s))
    [ "hit"; "delta"; "miss" ]

let test_cache_faults_caught () =
  List.iter
    (fun (name, f) ->
      Cache.fault := f;
      let caught =
        match
          QCheck2.Test.check_exn ~rand:(Random.State.make [| 35 |])
            (cache_ops_prop (Hashtbl.create 3))
        with
        | () -> false
        | exception QCheck2.Test.Test_fail _ -> true
      in
      Cache.fault := Cache.No_fault;
      checkb (name ^ " caught") true caught)
    [ ("extend-across-seo", Cache.Extend_across_seo); ("extend-skip-new-docs", Cache.Extend_skip_new_docs) ]

let test_engine_hydration () =
  let db_dir = temp_name "toss_serve_db" in
  let engine = Result.get_ok (Engine.create ~db_dir ()) in
  ignore (exec_ok engine (Protocol.Insert { collection = "bib"; xml = paper 1 }));
  ignore (exec_ok engine (Protocol.Insert { collection = "bib"; xml = paper 2 }));
  let r = exec_ok engine (query_request tql) in
  (* A second engine over the same directory sees the same state. *)
  let engine' = Result.get_ok (Engine.create ~db_dir ()) in
  let r' = exec_ok engine' (query_request tql) in
  checkb "hydrated count agrees" true
    (member_int "count" r' = member_int "count" r);
  checkb "hydrated version agrees" true (member_int "version" r' = Some 2)

(* ------------------------------------------------------------------ *)
(* Live server: concurrency stress with single-threaded replay          *)
(* ------------------------------------------------------------------ *)

(* Wait for a server/router thread to report ready, then build a stop
   function that requests shutdown over the wire and joins. *)
let await_ready run =
  let ready = Mutex.create () in
  let started = ref false in
  let cond = Condition.create () in
  let resolved = ref "" in
  let outcome = ref (Ok ()) in
  let thread =
    Thread.create
      (fun () ->
        outcome :=
          run (fun addr ->
              Mutex.lock ready;
              resolved := addr;
              started := true;
              Condition.signal cond;
              Mutex.unlock ready))
      ()
  in
  Mutex.lock ready;
  while not !started do
    Condition.wait cond ready
  done;
  Mutex.unlock ready;
  let stop () =
    (* A router's shutdown also stops its shards, so a later stop may
       find its server gone: fail at once rather than retry. *)
    (match Client.connect ~retry_ms:0 !resolved with
    | Ok conn ->
        ignore (Client.call conn Protocol.Shutdown);
        Client.close conn
    | Error _ -> ());
    Thread.join thread;
    match !outcome with
    | Ok () -> ()
    | Error msg -> Alcotest.fail ("server exited with: " ^ msg)
  in
  (!resolved, stop)

(* Start an in-process server on a fresh address (a temp Unix socket
   unless [listen] says otherwise); returns the resolved address — for
   Unix sockets the bare path, for TCP [tcp:HOST:PORT] with the kernel-
   chosen port — and a stop function. *)
let start_server ?(domains = 3) ?(max_queue = 64) ?db_dir ?(cache_capacity = 256)
    ?socket_path ?listen ?access_log ?(trace_sample = 0) ?slow_ms () =
  let listen =
    match listen with
    | Some l -> l
    | None ->
        Toss_server.Transport.Unix_sock
          (match socket_path with Some p -> p | None -> temp_name "toss_srv")
  in
  let config =
    {
      (Server.default_config ~listen) with
      Server.domains;
      max_queue;
      access_log;
      trace_sample;
      slow_ms;
    }
  in
  let engine = Result.get_ok (Engine.create ?db_dir ~cache_capacity ()) in
  await_ready (fun ready -> Server.run ~ready config (Engine.exec_traced engine))

(* Start an in-process router over [shards] behind the same front end,
   with the router's own worker count unless [domains] says otherwise. *)
let start_router ?listen ?(connect_retry_ms = 300) ?(replicated = [])
    ?(domains = Router.domains) ?(max_queue = Router.max_queue) shards =
  let listen =
    match listen with
    | Some l -> l
    | None -> Transport.Unix_sock (temp_name "toss_rtr")
  in
  let map =
    match Shard_map.make ~shards ~replicated with
    | Ok m -> m
    | Error msg -> Alcotest.fail msg
  in
  let router = Router.create ~connect_retry_ms map in
  let config = { (Server.default_config ~listen) with Server.domains; max_queue } in
  await_ready (fun ready ->
      Fun.protect
        ~finally:(fun () -> Router.close router)
        (fun () -> Server.run ~ready config (Router.dispatch router)))

type answer_obs = {
  a_tql : string;
  a_mode : Executor.mode;
  a_version : int;
  a_trees : string list;
}

type observation =
  | Inserted of { doc_id : int; xml : string }
  | Answered of answer_obs

let stress_thread socket seed ops out =
  match Client.connect socket with
  | Error msg -> out := Error msg
  | Ok conn ->
      let observations = ref [] in
      let failure = ref None in
      let tqls =
        [|
          (tql, Executor.Toss);
          (tql, Executor.Tax);
          ("MATCH #1:paper(/#2:title) WHERE #2.content ~ \"T2\" SELECT #1", Executor.Toss);
        |]
      in
      for i = 0 to ops - 1 do
        if !failure = None then
          if i mod 3 = 0 then begin
            let xml = paper ((seed * 1000) + i) in
            match
              Client.call conn (Protocol.Insert { collection = "bib"; xml })
            with
            | Ok payload -> (
                match member_int "doc_id" payload with
                | Some doc_id ->
                    observations := Inserted { doc_id; xml } :: !observations
                | None -> failure := Some "insert reply without doc_id")
            | Error f -> failure := Some (Client.failure_to_string f)
          end
          else begin
            let tql, mode = tqls.((seed + i) mod Array.length tqls) in
            match
              Client.call conn
                (Protocol.Query { collection = "bib"; tql; mode; cache = true })
            with
            | Ok payload -> (
                match
                  ( member_int "version" payload,
                    Option.bind (J.member "trees" payload) J.to_list )
                with
                | Some version, Some trees ->
                    let trees = List.filter_map J.to_str trees in
                    observations :=
                      Answered
                        { a_tql = tql; a_mode = mode; a_version = version; a_trees = trees }
                      :: !observations
                | _ -> failure := Some "query reply missing version/trees")
            | Error (Client.Wire e)
              when e.Protocol.code = Protocol.Unknown_collection ->
                (* Legal before the first insert lands. *)
                ()
            | Error f -> failure := Some (Client.failure_to_string f)
          end
      done;
      Client.close conn;
      out :=
        (match !failure with
        | Some msg -> Error msg
        | None -> Ok (List.rev !observations))

let canonical_xml trees =
  List.map
    (fun t -> Toss_xml.Printer.to_string ~decl:false t)
    (Toss_check.Diff.canonical trees)

(* ------------------------------------------------------------------ *)
(* Snapshot isolation and parallel pinned queries                       *)
(* ------------------------------------------------------------------ *)

let answer_count pinned tql =
  match Session.query_at pinned tql with
  | Ok a -> List.length a.Session.trees
  | Error msg -> Alcotest.fail msg

(* A writer landing between pin and execution must not change the
   pinned query's answer — the MVCC contract the result cache and the
   stress replay both lean on. *)
let test_snapshot_isolation () =
  let session = Session.create () in
  Session.add_document session ~collection:"bib" (Parser.parse_exn (paper 1));
  let pinned = Result.get_ok (Session.pin session ~collection:"bib") in
  checki "pinned at version 1" 1 (Session.pinned_version pinned);
  (* The insert lands while the pinned query is notionally in flight;
     Name2 is within eps of Name1, so an unpinned query would see it. *)
  Session.add_document session ~collection:"bib" (Parser.parse_exn (paper 2));
  checki "pinned query ignores the concurrent insert" 1
    (answer_count pinned tql);
  let fresh = Result.get_ok (Session.pin session ~collection:"bib") in
  checki "fresh pin sees version 2" 2 (Session.pinned_version fresh);
  checki "fresh query sees both documents" 2 (answer_count fresh tql);
  (* The old pin keeps answering at its version, repeatedly. *)
  checki "old pin still answers at version 1" 1 (answer_count pinned tql);
  checki "old pin version unchanged" 1 (Session.pinned_version pinned)

(* One shared pin queried from several domains while a writer keeps
   inserting: every answer must equal the single-threaded answer taken
   before the writer started. *)
let test_parallel_pinned_queries () =
  let session = Session.create () in
  for i = 1 to 4 do
    Session.add_document session ~collection:"bib" (Parser.parse_exn (paper i))
  done;
  let pinned = Result.get_ok (Session.pin session ~collection:"bib") in
  let expected =
    match Session.query_at pinned tql with
    | Ok a -> canonical_xml a.Session.trees
    | Error msg -> Alcotest.fail msg
  in
  let reader () =
    let ok = ref true in
    for _ = 1 to 20 do
      (match Session.query_at pinned tql with
      | Ok a -> if canonical_xml a.Session.trees <> expected then ok := false
      | Error _ -> ok := false)
    done;
    !ok
  in
  let readers = Array.init 3 (fun _ -> Domain.spawn reader) in
  (* The writer churns on the main domain while the readers run. *)
  for i = 100 to 130 do
    Session.add_document session ~collection:"bib" (Parser.parse_exn (paper i))
  done;
  Array.iter
    (fun d -> checkb "every parallel answer matches the pinned answer" true (Domain.join d))
    readers;
  checki "pin survived the writer untouched" 4 (Session.pinned_version pinned)

let test_stress_replay () =
  let socket, stop = start_server () in
  let n_threads = 4 and ops = 24 in
  let outs = Array.init n_threads (fun _ -> ref (Ok [])) in
  let threads =
    Array.init n_threads (fun i ->
        Thread.create (fun () -> stress_thread socket (i + 1) ops outs.(i)) ())
  in
  Array.iter Thread.join threads;
  stop ();
  let observations =
    Array.to_list outs
    |> List.concat_map (fun out ->
           match !out with
           | Error msg -> Alcotest.fail msg
           | Ok obs -> obs)
  in
  let inserts =
    List.filter_map
      (function Inserted { doc_id; xml } -> Some (doc_id, xml) | _ -> None)
      observations
    |> List.sort compare
  in
  let answers =
    List.filter_map (function Answered a -> Some a | _ -> None) observations
  in
  checkb "some inserts happened" true (List.length inserts > 0);
  checkb "some queries were answered" true (List.length answers > 0);
  (* doc_ids are exactly 0..n-1: every insert is visible exactly once. *)
  List.iteri
    (fun i (doc_id, _) -> checki "doc_ids are dense" i doc_id)
    inserts;
  (* Replay: a query answered at version v ran against documents
     0..v-1. A fresh single-threaded session must answer identically
     (canonicalized: witness order is not part of the contract). *)
  let docs = Array.of_list (List.map snd inserts) in
  List.iter
    (fun { a_tql; a_mode; a_version; a_trees } ->
      checkb "version within bounds" true (a_version <= Array.length docs);
      let session = Session.create () in
      for i = 0 to a_version - 1 do
        Session.add_document session ~collection:"bib"
          (Parser.parse_exn docs.(i))
      done;
      match Session.query ~mode:a_mode session ~collection:"bib" a_tql with
      | Error msg -> Alcotest.fail ("replay failed: " ^ msg)
      | Ok answer ->
          let served = canonical_xml (List.map Parser.parse_exn a_trees) in
          let replayed = canonical_xml answer.Session.trees in
          checkb
            (Printf.sprintf "answer at version %d matches replay" a_version)
            true (served = replayed))
    answers

let find_counter snap ?labels name =
  Option.value ~default:0 (Metrics.find_counter snap ?labels name)

let test_stress_cache_metrics () =
  (* Deterministic warm-up on a quiet server: same query twice must hit,
     and the global counters must reflect it. *)
  let socket, stop = start_server () in
  let conn = Result.get_ok (Client.connect socket) in
  let call request =
    match Client.call conn request with
    | Ok payload -> payload
    | Error f -> Alcotest.fail (Client.failure_to_string f)
  in
  ignore (call (Protocol.Insert { collection = "bib"; xml = paper 1 }));
  let snap0 = Metrics.snapshot () in
  let r1 = call (query_request tql) in
  let r2 = call (query_request tql) in
  checkb "cold miss" true (member_str "cache" r1 = Some "miss");
  checkb "warm hit" true (member_str "cache" r2 = Some "hit");
  let snap = Metrics.snapshot () in
  checkb "hit counter advanced" true
    (find_counter snap "server.cache.hits" > find_counter snap0 "server.cache.hits");
  ignore (call (Protocol.Insert { collection = "bib"; xml = paper 1 }));
  let r3 = call (query_request tql) in
  checkb "an absorbed insert extends across the wire" true
    (member_str "cache" r3 = Some "delta");
  checkb "the delta answer equals a recompute" true
    (J.member "trees" r3 = J.member "trees" (call (query_request ~cache:false tql)));
  let snap' = Metrics.snapshot () in
  checkb "delta counter advanced" true
    (find_counter snap' "server.cache.deltas" > find_counter snap "server.cache.deltas");
  Client.close conn;
  stop ()

let test_overload_and_deadline_wire () =
  (* domains=0, max_queue=0: every pooled request is shed, while ping
     and stats still answer inline. *)
  let socket, stop = start_server ~domains:0 ~max_queue:0 () in
  let conn = Result.get_ok (Client.connect socket) in
  (match Client.call conn Protocol.Ping with
  | Ok _ -> ()
  | Error f -> Alcotest.fail (Client.failure_to_string f));
  (match Client.call conn (query_request tql) with
  | Error (Client.Wire e) ->
      checks "typed overload" "overloaded" (Protocol.code_name e.Protocol.code)
  | Ok _ | Error (Client.Transport _) -> Alcotest.fail "expected overloaded");
  (match Client.call conn Protocol.Stats with
  | Ok s ->
      let snap_sheds = member_str "table" s in
      checkb "stats alive under overload" true (snap_sheds <> None)
  | Error f -> Alcotest.fail (Client.failure_to_string f));
  Client.close conn;
  stop ();
  (* deadline_ms 0: the request dies of old age before or during
     execution, with the typed error either way. *)
  let socket, stop = start_server () in
  let conn = Result.get_ok (Client.connect socket) in
  ignore (Client.call conn (Protocol.Insert { collection = "bib"; xml = paper 1 }));
  (match Client.call conn ~deadline_ms:0 (query_request tql) with
  | Error (Client.Wire e) ->
      checks "typed deadline" "deadline_exceeded" (Protocol.code_name e.Protocol.code)
  | Ok _ | Error (Client.Transport _) -> Alcotest.fail "expected deadline_exceeded");
  Client.close conn;
  stop ()

(* Pipelines [n] queries with ids on one connection to [socket], then
   half-closes its sending side: every response must still arrive,
   matched by id. *)
let pipeline_then_half_close ~label socket =
  let conn = Result.get_ok (Client.connect socket) in
  ignore (Client.call conn (Protocol.Insert { collection = "bib"; xml = paper 1 }));
  Client.close conn;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  let oc = Unix.out_channel_of_descr fd in
  let ic = Unix.in_channel_of_descr fd in
  let n = 24 in
  for i = 1 to n do
    output_string oc
      (Protocol.request_to_line
         {
           Protocol.id = Some i;
           deadline_ms = None;
           trace_id = None;
           allow_partial = false;
           request = query_request ~cache:false tql;
         });
    output_char oc '\n'
  done;
  flush oc;
  (* The reader sees EOF while most jobs are still queued behind the
     workers. *)
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  let seen = Hashtbl.create n in
  (try
     for _ = 1 to n do
       match Protocol.parse_response (input_line ic) with
       | Ok { Protocol.rid = Some i; body = Ok _; _ } -> Hashtbl.replace seen i ()
       | Ok { Protocol.rid = _; body = Error e; _ } ->
           Alcotest.fail ("unexpected error: " ^ e.Protocol.message)
       | Ok { Protocol.rid = None; _ } -> Alcotest.fail "response without id"
       | Error msg -> Alcotest.fail msg
     done
   with End_of_file | Sys_error _ -> ());
  checki (label ^ ": every pipelined response arrives after half-close") n
    (Hashtbl.length seen);
  (try Unix.close fd with Unix.Unix_error _ -> ())

let test_half_close_drains_responses () =
  (* Regression for a use-after-close race: the reader thread used to
     close the fd the moment input hit EOF, while responses for still-
     queued pool jobs were pending — they were silently dropped, or,
     with fd-number reuse, delivered to a different client. A client
     that pipelines requests and then half-closes its sending side must
     still receive every response. *)
  let socket, stop = start_server ~domains:1 () in
  pipeline_then_half_close ~label:"server" socket;
  stop ();
  (* The router runs behind the same front end, so its answers complete
     out of order on its pool and drain the same way. *)
  let s1, stop1 = start_server () in
  let s2, stop2 = start_server () in
  let router, stop_router = start_router [ s1; s2 ] in
  pipeline_then_half_close ~label:"router" router;
  stop1 ();
  stop2 ();
  stop_router ()

let test_socket_claiming () =
  (* A stale socket file left by a dead server is reclaimed… *)
  let path = temp_name "toss_sock" in
  let stale = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind stale (Unix.ADDR_UNIX path);
  Unix.close stale;
  checkb "stale file left behind" true (Sys.file_exists path);
  let _, stop = start_server ~socket_path:path () in
  (* …but a second server must refuse a socket something is listening
     on, without unlinking it from under the live server. *)
  (match
     Server.run
       (Server.default_config ~listen:(Toss_server.Transport.Unix_sock path))
       (Engine.exec_traced (Result.get_ok (Engine.create ())))
   with
  | Ok () -> Alcotest.fail "second server bound a live socket"
  | Error _ -> ());
  checkb "live socket not unlinked" true (Sys.file_exists path);
  let conn = Result.get_ok (Client.connect path) in
  (match Client.call conn Protocol.Ping with
  | Ok _ -> ()
  | Error f -> Alcotest.fail (Client.failure_to_string f));
  Client.close conn;
  stop ()

let test_server_hydration () =
  let db_dir = temp_name "toss_srv_db" in
  let socket, stop = start_server ~db_dir () in
  let conn = Result.get_ok (Client.connect socket) in
  ignore (Client.call conn (Protocol.Insert { collection = "bib"; xml = paper 1 }));
  ignore (Client.call conn (Protocol.Insert { collection = "bib"; xml = paper 2 }));
  Client.close conn;
  stop ();
  let socket, stop = start_server ~db_dir () in
  let conn = Result.get_ok (Client.connect socket) in
  (match Client.call conn (query_request tql) with
  | Ok payload ->
      checkb "restarted server sees both docs" true
        (member_int "count" payload = Some 2)
  | Error f -> Alcotest.fail (Client.failure_to_string f));
  Client.close conn;
  stop ()

(* ------------------------------------------------------------------ *)
(* Request-scoped tracing                                               *)
(* ------------------------------------------------------------------ *)

let test_trace_echo () =
  let socket, stop = start_server () in
  let conn = Result.get_ok (Client.connect socket) in
  (* A client-supplied id comes back verbatim, with the server's own
     timing attached — inline and pooled ops alike. *)
  (match Client.call_response conn ~trace_id:"abc" Protocol.Ping with
  | Ok r ->
      checkb "inline op echoes the id" true (r.Protocol.rtrace_id = Some "abc");
      checkb "inline op reports server_ms" true (r.Protocol.server_ms <> None)
  | Error f -> Alcotest.fail (Client.failure_to_string f));
  ignore (Client.call conn (Protocol.Insert { collection = "bib"; xml = paper 1 }));
  (match Client.call_response conn ~trace_id:"q-1" (query_request ~cache:false tql) with
  | Ok r ->
      checkb "pooled op echoes the id" true (r.Protocol.rtrace_id = Some "q-1");
      checkb "pooled op reports server_ms" true (r.Protocol.server_ms <> None);
      checkb "pooled op reports queue_ms" true (r.Protocol.queue_ms <> None);
      checkb "timings non-negative" true
        (Option.get r.Protocol.server_ms >= 0. && Option.get r.Protocol.queue_ms >= 0.)
  | Error f -> Alcotest.fail (Client.failure_to_string f));
  (* No id supplied: the server generates a well-formed one. *)
  (match Client.call_response conn Protocol.Ping with
  | Ok r -> (
      match r.Protocol.rtrace_id with
      | Some id -> checkb "generated id is valid" true (Toss_obs.Trace.is_valid id)
      | None -> Alcotest.fail "no trace id generated")
  | Error f -> Alcotest.fail (Client.failure_to_string f));
  (* A malformed id is a typed bad_request, not a copied-into-logs id. *)
  (match Client.call_response conn ~trace_id:"has space" Protocol.Ping with
  | Ok { Protocol.body = Error e; _ } ->
      checks "invalid id rejected" "bad_request" (Protocol.code_name e.Protocol.code)
  | Ok { Protocol.body = Ok _; _ } -> Alcotest.fail "expected bad_request"
  | Error f -> Alcotest.fail (Client.failure_to_string f));
  Client.close conn;
  stop ()

(* Runs [f] with the process's stderr redirected to a fresh file, and
   returns its result with the lines written meanwhile: the slow-query
   log of an in-process server. *)
let with_stderr_captured f =
  let path = temp_name "toss_stderr" in
  flush stderr;
  let saved = Unix.dup Unix.stderr in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stderr;
  Unix.close fd;
  let result =
    Fun.protect
      ~finally:(fun () ->
        flush stderr;
        Unix.dup2 saved Unix.stderr;
        Unix.close saved)
      f
  in
  let lines = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  (result, String.split_on_char '\n' lines)

let slow_records lines =
  List.filter_map
    (fun line ->
      if String.starts_with ~prefix:"{\"type\":\"slow_query\"" line then
        Some (J.parse_exn line)
      else None)
    lines

let record_id r =
  match Option.bind (J.member "trace_id" r) J.to_str with
  | Some id -> id
  | None -> Alcotest.fail "slow record without trace_id"

let record_root_name r =
  Option.bind (J.member "trace" r) (fun t -> Option.bind (J.member "name" t) J.to_str)

(* Several domains execute queries concurrently, every query slow-logged.
   The span stack is domain-local, so each record's tree must hold
   exactly one request: one record per trace id, and every node of its
   tree stamped with that id. *)
let test_multidomain_slow_capture () =
  let n_threads = 4 and per_thread = 6 in
  let (), lines =
    with_stderr_captured @@ fun () ->
    let socket, stop = start_server ~domains:4 ~slow_ms:0 () in
    let conn = Result.get_ok (Client.connect socket) in
    ignore (Client.call conn (Protocol.Insert { collection = "bib"; xml = paper 1 }));
    Client.close conn;
    let failures = Array.make n_threads None in
    let threads =
      Array.init n_threads (fun t ->
          Thread.create
            (fun () ->
              match Client.connect socket with
              | Error msg -> failures.(t) <- Some msg
              | Ok conn ->
                  for j = 1 to per_thread do
                    let trace_id = Printf.sprintf "t%d-%d" t j in
                    match
                      Client.call conn ~trace_id (query_request ~cache:false tql)
                    with
                    | Ok _ -> ()
                    | Error f -> failures.(t) <- Some (Client.failure_to_string f)
                  done;
                  Client.close conn)
            ())
    in
    Array.iter Thread.join threads;
    stop ();
    Array.iter (Option.iter Alcotest.fail) failures
  in
  let records = slow_records lines in
  let expected =
    List.concat_map
      (fun t -> List.init per_thread (fun j -> Printf.sprintf "t%d-%d" t (j + 1)))
      (List.init n_threads Fun.id)
    |> List.sort compare
  in
  Alcotest.(check (list string))
    "one record per query, keyed by its trace id" expected
    (List.sort compare (List.map record_id records));
  List.iter
    (fun r ->
      let id = record_id r in
      checkb "root span is the select" true
        (record_root_name r = Some "executor.select");
      let rec check_span sp =
        (match Option.bind (J.member "meta" sp) (J.member "trace_id") with
        | Some tid -> checkb "span stamped with the record's id" true (J.to_str tid = Some id)
        | None -> Alcotest.fail "span frame without trace_id");
        match Option.bind (J.member "children" sp) J.to_list with
        | Some children -> List.iter check_span children
        | None -> ()
      in
      check_span (Option.get (J.member "trace" r)))
    records

(* A record needs a finished executor tree: a query that dies of its
   deadline mid-run and a cache hit write none, while a join writes one
   rooted at the join. *)
let test_slow_log_executed_only () =
  let big =
    let corpus = Toss_data.Corpus.generate ~seed:4 ~n_papers:300 () in
    Toss_xml.Printer.to_string ~decl:false
      (Toss_data.Dblp_gen.render ~seed:4 corpus).Toss_data.Dblp_gen.tree
  in
  let big_tql =
    "MATCH #1:inproceedings(/#2:booktitle) WHERE #2.content isa \"database \
     conference\" SELECT #1"
  in
  let join_tql =
    "MATCH #0:pt(//#1:paper(/#2:author), //#3:paper(/#4:author)) WHERE \
     #2.content ~ #4.content SELECT #1,#3"
  in
  let (), lines =
    with_stderr_captured @@ fun () ->
    let socket, stop = start_server ~slow_ms:0 () in
    let conn = Result.get_ok (Client.connect socket) in
    let call ?deadline_ms trace_id request =
      Client.call conn ?deadline_ms ~trace_id request
    in
    List.iter
      (fun (collection, xml) ->
        ignore (call "insert" (Protocol.Insert { collection; xml })))
      [ ("bib", paper 1); ("refs", paper 1); ("big", big) ];
    (* The first query after the big insert builds the ontology, far
       longer than the budget, so the executor is cut off mid-run. *)
    (match
       call ~deadline_ms:5 "deadline-1"
         (Protocol.Query
            { collection = "big"; tql = big_tql; mode = Executor.Toss; cache = false })
     with
    | Error (Client.Wire e) ->
        checks "typed deadline" "deadline_exceeded" (Protocol.code_name e.Protocol.code)
    | Ok _ | Error (Client.Transport _) -> Alcotest.fail "expected deadline_exceeded");
    ignore (call "miss-1" (query_request tql));
    (match call "hit-1" (query_request tql) with
    | Ok payload ->
        checkb "second query is a cache hit" true (member_str "cache" payload = Some "hit")
    | Error f -> Alcotest.fail (Client.failure_to_string f));
    (match
       call "join-1"
         (Protocol.Join
            { left = "bib"; right = "refs"; tql = join_tql; mode = Executor.Toss })
     with
    | Ok _ -> ()
    | Error f -> Alcotest.fail (Client.failure_to_string f));
    Client.close conn;
    stop ()
  in
  let records = slow_records lines in
  Alcotest.(check (list string))
    "records only for executions that finished" [ "join-1"; "miss-1" ]
    (List.sort compare (List.map record_id records));
  List.iter
    (fun r ->
      checkb "each record rooted at its executor" true
        (record_root_name r
        = Some (if record_id r = "join-1" then "executor.join" else "executor.select")))
    records

(* A collection name is whatever the client sent, and it lands in the
   executor root span's meta. With every request sampled and
   slow-logged, a query on a non-ASCII collection must still get its
   answer, and both its access-log line and its slow record must be
   valid JSON carrying the name. *)
let test_utf8_collection_logs () =
  let log_path = temp_name "toss_access" in
  let collection = "b\xc3\xbccher" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists log_path then Sys.remove log_path)
  @@ fun () ->
  let (), stderr_lines =
    with_stderr_captured @@ fun () ->
    let socket, stop =
      start_server ~access_log:log_path ~trace_sample:1 ~slow_ms:0 ()
    in
    let conn = Result.get_ok (Client.connect socket) in
    ignore (Client.call conn (Protocol.Insert { collection; xml = paper 1 }));
    (* A response lost to a logging failure would block [call] forever:
       wait for it on a thread, so the test fails instead of hanging. *)
    let answer = Atomic.make None in
    let caller =
      Thread.create
        (fun () ->
          Atomic.set answer
            (Some
               (Client.call conn ~trace_id:"utf8-q"
                  (Protocol.Query
                     { collection; tql; mode = Executor.Toss; cache = false }))))
        ()
    in
    let rec await polls =
      match Atomic.get answer with
      | Some r -> r
      | None when polls = 0 -> Alcotest.fail "the query got no response"
      | None ->
          Thread.delay 0.01;
          await (polls - 1)
    in
    (match await 1000 with
    | Ok payload -> checkb "query answered" true (J.member "trees" payload <> None)
    | Error f -> Alcotest.fail (Client.failure_to_string f));
    Thread.join caller;
    Client.close conn;
    stop ()
  in
  let parse what line =
    match J.parse line with
    | Ok v -> v
    | Error msg -> Alcotest.failf "%s is not valid JSON (%s): %s" what msg line
  in
  let root_collection r =
    Option.bind (J.member "trace" r) (fun t ->
        Option.bind (Option.bind (J.member "meta" t) (J.member "collection")) J.to_str)
  in
  let access =
    In_channel.with_open_text log_path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
    |> List.map (parse "access-log line")
  in
  (match
     List.find_opt
       (fun r -> Option.bind (J.member "trace_id" r) J.to_str = Some "utf8-q")
       access
   with
  | Some q ->
      checkb "access log names the collection" true
        (member_str "collection" q = Some collection);
      checkb "sampled tree names the collection" true
        (root_collection q = Some collection)
  | None -> Alcotest.fail "no access-log record for the query");
  let slow =
    List.filter_map
      (fun line ->
        if String.starts_with ~prefix:"{\"type\":\"slow_query\"" line then
          Some (parse "slow record" line)
        else None)
      stderr_lines
  in
  Alcotest.(check (list string))
    "one slow record, for the query" [ "utf8-q" ] (List.map record_id slow);
  checkb "slow record names the collection" true
    (root_collection (List.hd slow) = Some collection)

let test_access_log () =
  let log_path = temp_name "toss_access" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists log_path then Sys.remove log_path)
  @@ fun () ->
  let socket, stop = start_server ~access_log:log_path ~trace_sample:1 () in
  let conn = Result.get_ok (Client.connect socket) in
  ignore (Client.call conn ~trace_id:"alog-i" (Protocol.Insert { collection = "bib"; xml = paper 1 }));
  ignore (Client.call conn ~trace_id:"alog-q" (query_request ~cache:false tql));
  ignore (Client.call conn Protocol.Ping);
  Client.close conn;
  stop ();
  let ic = open_in log_path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  (* insert + query + ping + the shutdown that stopped the server. *)
  let records = List.rev_map J.parse_exn !lines in
  checki "one record per request" 4 (List.length records);
  let str name r = Option.bind (J.member name r) J.to_str in
  let num name r = Option.bind (J.member name r) J.to_num in
  List.iter
    (fun r ->
      checkb "ts present" true (num "ts" r <> None);
      checkb "trace_id present" true (str "trace_id" r <> None);
      checkb "op present" true (str "op" r <> None);
      checks "status ok" "ok" (Option.get (str "status" r));
      checkb "exec seconds non-negative" true (Option.get (num "exec_s" r) >= 0.);
      checkb "domain recorded" true (num "domain" r <> None))
    records;
  let find_op op =
    match List.find_opt (fun r -> str "op" r = Some op) records with
    | Some r -> r
    | None -> Alcotest.failf "no %s record in the access log" op
  in
  let q = find_op "query" in
  checkb "query keeps the client's id" true (str "trace_id" q = Some "alog-q");
  checkb "collection recorded" true (str "collection" q = Some "bib");
  checkb "cache status recorded" true (str "cache" q = Some "miss");
  checkb "version recorded" true
    (Option.bind (J.member "version" q) J.to_int = Some 1);
  checkb "queue wait recorded" true (Option.get (num "queue_s" q) >= 0.);
  (* trace_sample:1 records the span tree for every pooled request. *)
  checkb "sampled span tree present" true (J.member "trace" q <> None);
  let i = find_op "insert" in
  checkb "insert keeps the client's id" true (str "trace_id" i = Some "alog-i");
  let p = find_op "ping" in
  checkb "inline op gets a generated id" true (str "trace_id" p <> None)

(* ------------------------------------------------------------------ *)
(* Binary codec properties                                              *)
(* ------------------------------------------------------------------ *)

(* Values whose JSON text rendering round-trips exactly: quarters stay
   finite in decimal, so the same generator serves both codecs and the
   cross-codec comparison below is an equality, not an approximation. *)
let gen_json =
  QCheck2.Gen.(
    sized
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 return J.Null;
                 map (fun b -> J.Bool b) bool;
                 map
                   (fun i -> J.Num (float_of_int i /. 4.))
                   (int_range (-4000) 4000);
                 map (fun s -> J.Str s) (string_size (int_range 0 12));
               ]
           in
           if n = 0 then leaf
           else
             let keys =
               string_size ~gen:(char_range 'a' 'z') (int_range 1 6)
             in
             let dedup l =
               List.rev
                 (List.fold_left
                    (fun acc (k, v) ->
                      if List.mem_assoc k acc then acc else (k, v) :: acc)
                    [] l)
             in
             oneof
               [
                 leaf;
                 map (fun l -> J.Arr l) (list_size (int_range 0 4) (self (n / 2)));
                 map
                   (fun l -> J.Obj (dedup l))
                   (list_size (int_range 0 4) (pair keys (self (n / 2))));
               ]))

let gen_envelope =
  QCheck2.Gen.(
    let name = string_size ~gen:(char_range 'a' 'z') (int_range 1 8) in
    let mode = oneofl [ Executor.Tax; Executor.Toss ] in
    let gen_request =
      oneof
        [
          oneofl [ Protocol.Ping; Protocol.Stats; Protocol.Metrics; Protocol.Shutdown ];
          map2
            (fun collection xml -> Protocol.Insert { collection; xml })
            name (string_size (int_range 0 24));
          map3
            (fun collection tql (mode, cache) ->
              Protocol.Query { collection; tql; mode; cache })
            name (string_size (int_range 0 24)) (pair mode bool);
          map3
            (fun (left, right) tql mode -> Protocol.Join { left; right; tql; mode })
            (pair name name) (string_size (int_range 0 24)) mode;
          map3
            (fun collection tql mode -> Protocol.Explain { collection; tql; mode })
            name (string_size (int_range 0 24)) mode;
        ]
    in
    let trace = string_size ~gen:(char_range 'a' 'z') (int_range 1 16) in
    map3
      (fun (id, deadline_ms) (trace_id, allow_partial) request ->
        { Protocol.id; deadline_ms; trace_id; allow_partial; request })
      (pair (opt (int_bound 10000)) (opt (int_bound 10000)))
      (pair (opt trace) bool)
      gen_request)

let gen_response =
  QCheck2.Gen.(
    let quarters = map (fun i -> float_of_int i /. 4.) (int_bound 40000) in
    let err =
      map2
        (fun code message -> Protocol.error code message)
        (oneofl
           [
             Protocol.Bad_request;
             Protocol.Parse_error;
             Protocol.Overloaded;
             Protocol.Shard_unavailable;
             Protocol.Internal;
           ])
        (string_size (int_range 0 24))
    in
    map3
      (fun (id, trace_id) (server_ms, queue_ms) body ->
        {
          Protocol.rid = id;
          rtrace_id = trace_id;
          server_ms;
          queue_ms;
          body;
        })
      (pair (opt (int_bound 10000))
         (opt (string_size ~gen:(char_range 'a' 'z') (int_range 1 16))))
      (pair (opt quarters) (opt quarters))
      (oneof [ map Result.ok gen_json; map Result.error err ]))

let is_parse_error = function
  | Error e -> e.Protocol.code = Protocol.Parse_error
  | Ok _ -> false

let prop_binary_value_roundtrip =
  QCheck2.Test.make ~name:"binary value and frame round-trip" ~count:300
    gen_json (fun v ->
      Protocol.decode_binary (Protocol.encode_binary v) = Ok v
      && Protocol.decode_frame (Protocol.encode_frame v) = Ok v)

let prop_binary_envelope_roundtrip =
  QCheck2.Test.make ~name:"framed request envelope round-trip" ~count:300
    gen_envelope (fun env ->
      match Protocol.decode_frame (Protocol.encode_frame (Protocol.request_to_json env)) with
      | Error _ -> false
      | Ok v -> Protocol.request_of_json v = Ok env)

let prop_truncated_frame_rejected =
  (* Every proper prefix of a valid frame is a typed parse_error —
     never an exception, never a bogus decode. *)
  QCheck2.Test.make ~name:"truncated frames are typed parse_errors" ~count:150
    QCheck2.Gen.(pair gen_json (float_bound_inclusive 1.))
    (fun (v, frac) ->
      let frame = Protocol.encode_frame v in
      let k = int_of_float (frac *. float_of_int (String.length frame - 1)) in
      is_parse_error (Protocol.decode_frame (String.sub frame 0 k)))

let test_oversized_frame_rejected () =
  (* A header announcing more than max_frame is rejected from the
     4 header bytes alone, before any payload allocation. *)
  let header n =
    let b = Bytes.create 4 in
    Bytes.set_int32_be b 0 (Int32.of_int n);
    Bytes.to_string b
  in
  checkb "oversized length via frame_length" true
    (is_parse_error (Protocol.frame_length (header (Protocol.max_frame + 1))));
  checkb "oversized length via decode_frame" true
    (is_parse_error (Protocol.decode_frame (header (Protocol.max_frame + 1) ^ "x")));
  checkb "short header" true (is_parse_error (Protocol.frame_length "ab"));
  checkb "sane length accepted" true (Protocol.frame_length (header 5) = Ok 5);
  (* Framing intact, payload garbage: still typed, still no exception. *)
  checkb "unknown tag" true
    (is_parse_error (Protocol.decode_frame (header 1 ^ "Z")));
  checkb "trailing bytes" true
    (is_parse_error
       (Protocol.decode_frame (header 2 ^ Protocol.encode_binary J.Null ^ "N")));
  (* Both codecs share one nesting cap: a value inside 512 arrays
     decodes, one inside 513 is a typed parse_error. *)
  let rec nest k v = if k = 0 then v else nest (k - 1) (J.Arr [ v ]) in
  let deep k = nest k (J.Num 0.) in
  checkb "binary: 512 levels accepted" true
    (Protocol.decode_binary (Protocol.encode_binary (deep 512)) = Ok (deep 512));
  checkb "binary: 513 levels rejected" true
    (is_parse_error (Protocol.decode_binary (Protocol.encode_binary (deep 513))));
  let request k = J.to_string (J.Obj [ ("op", J.Str "ping"); ("pad", deep k) ]) in
  checkb "json: 512 levels accepted" true
    (Result.is_ok (Protocol.parse_request (request 511)));
  checkb "json: 513 levels rejected" true
    (is_parse_error (Protocol.parse_request (request 512)))

let prop_cross_codec_responses =
  (* One response value, both codecs: the JSON line and the binary
     frame must decode to the same response. *)
  QCheck2.Test.make ~name:"responses agree across codecs" ~count:300
    gen_response (fun r ->
      let via_json = Protocol.parse_response (Protocol.response_to_line r) in
      let via_binary =
        match Protocol.decode_frame (Protocol.encode_frame (Protocol.response_to_json r)) with
        | Error e -> Error e.Protocol.message
        | Ok v -> Protocol.response_of_json v
      in
      via_json = Ok r && via_binary = Ok r)

(* ------------------------------------------------------------------ *)
(* TCP transport, binary connections, connect retry                     *)
(* ------------------------------------------------------------------ *)

let payload_canonical payload =
  match Option.bind (J.member "trees" payload) J.to_list with
  | None -> Alcotest.fail "payload without trees"
  | Some trees ->
      canonical_xml
        (List.map
           (fun t -> Parser.parse_exn (Option.get (J.to_str t)))
           trees)

let call_ok conn request =
  match Client.call conn request with
  | Ok payload -> payload
  | Error f -> Alcotest.fail (Client.failure_to_string f)

let test_tcp_and_binary_live () =
  let addr, stop = start_server ~listen:(Transport.Tcp ("127.0.0.1", 0)) () in
  checkb "port 0 resolved to a concrete port" true
    (String.length addr > String.length "tcp:127.0.0.1:");
  let bin = Result.get_ok (Client.connect ~codec:Protocol.Binary addr) in
  checkb "binary codec negotiated" true (Client.codec bin = Protocol.Binary);
  (match Client.call bin Protocol.Ping with
  | Ok _ -> ()
  | Error f -> Alcotest.fail (Client.failure_to_string f));
  ignore (call_ok bin (Protocol.Insert { collection = "bib"; xml = paper 1 }));
  ignore (call_ok bin (Protocol.Insert { collection = "bib"; xml = paper 2 }));
  let rb = call_ok bin (query_request ~cache:false tql) in
  (* A JSON client on the same TCP server sees the identical answer:
     the codec is per-connection framing, nothing more. *)
  let js = Result.get_ok (Client.connect addr) in
  checkb "json is still the default" true (Client.codec js = Protocol.Json);
  let rj = call_ok js (query_request ~cache:false tql) in
  checkb "versions agree across codecs" true
    (member_int "version" rb = member_int "version" rj);
  checkb "counts agree across codecs" true
    (member_int "count" rb = member_int "count" rj);
  checkb "witnesses agree across codecs" true
    (payload_canonical rb = payload_canonical rj);
  (* Typed errors survive the binary framing too. *)
  (match
     Client.call bin
       (Protocol.Query
          { collection = "nope"; tql; mode = Executor.Toss; cache = true })
   with
  | Error (Client.Wire e) ->
      checks "typed error over binary" "unknown_collection"
        (Protocol.code_name e.Protocol.code)
  | Ok _ | Error (Client.Transport _) -> Alcotest.fail "expected unknown_collection");
  Client.close bin;
  Client.close js;
  stop ()

let test_connect_retry () =
  (* No server at all: the bounded retry gives up with the plain
     connect error. *)
  let path = temp_name "toss_retry" in
  (match Client.connect ~retry_ms:50 path with
  | Ok _ -> Alcotest.fail "connected to nothing"
  | Error msg ->
      checkb "connect error names the address" true
        (String.length msg > 0
        && String.sub msg 0 (min 14 (String.length msg)) = "cannot connect"));
  (* Server comes up 300 ms after the client starts dialing: the
     backoff loop rides out the gap. *)
  let stop_box = ref None in
  let box_lock = Mutex.create () in
  let starter =
    Thread.create
      (fun () ->
        Thread.delay 0.3;
        let _, stop = start_server ~socket_path:path () in
        Mutex.lock box_lock;
        stop_box := Some stop;
        Mutex.unlock box_lock)
      ()
  in
  (match Client.connect ~retry_ms:5000 path with
  | Error msg -> Alcotest.fail ("retry did not ride out the gap: " ^ msg)
  | Ok conn ->
      (match Client.call conn Protocol.Ping with
      | Ok _ -> ()
      | Error f -> Alcotest.fail (Client.failure_to_string f));
      Client.close conn);
  Thread.join starter;
  Mutex.lock box_lock;
  let stop = Option.get !stop_box in
  Mutex.unlock box_lock;
  stop ()

(* ------------------------------------------------------------------ *)
(* Sharded router                                                       *)
(* ------------------------------------------------------------------ *)

(* The differential gate of ISSUE.md: a router over two shards must be
   indistinguishable — witness for witness, after Diff.canonical — from
   a single unsharded server over the same corpus, across both codecs
   and both transports. *)
let test_router_differential_gate () =
  let join_tql =
    "MATCH #0:pt(//#1:paper(/#2:author), //#3:paper(/#4:author)) WHERE \
     #2.content ~ #4.content SELECT #1,#3"
  in
  let queries =
    [
      tql;
      "MATCH #1:paper(/#2:title) WHERE #2.content ~ \"T2\" SELECT #1";
      "MATCH #1:paper(/#2:author) WHERE #2.content = \"Name3\" SELECT #1";
    ]
  in
  let combos =
    [
      (Transport.Unix_sock (temp_name "toss_rtr"), Protocol.Json);
      (Transport.Unix_sock (temp_name "toss_rtr"), Protocol.Binary);
      (Transport.Tcp ("127.0.0.1", 0), Protocol.Json);
      (Transport.Tcp ("127.0.0.1", 0), Protocol.Binary);
    ]
  in
  List.iter
    (fun (listen, codec) ->
      let label =
        Printf.sprintf "[%s %s]"
          (match listen with Transport.Unix_sock _ -> "unix" | Transport.Tcp _ -> "tcp")
          (Protocol.codec_name codec)
      in
      let single_addr, stop_single = start_server () in
      let s1, stop1 = start_server () in
      let s2, stop2 = start_server () in
      let router_addr, stop_router =
        start_router ~listen ~replicated:[ "refs" ] [ s1; s2 ]
      in
      let single = Result.get_ok (Client.connect single_addr) in
      let routed = Result.get_ok (Client.connect ~codec router_addr) in
      (* Same inserts, same order, into both deployments; the router's
         logical numbering must match the single server's exactly. *)
      for i = 1 to 6 do
        let req = Protocol.Insert { collection = "bib"; xml = paper i } in
        let a = call_ok single req and b = call_ok routed req in
        checkb
          (label ^ " insert numbering matches the single server")
          true
          (member_int "doc_id" a = member_int "doc_id" b
          && member_int "version" a = member_int "version" b);
        checkb (label ^ " routed insert names its shard") true
          (member_int "shard" b <> None)
      done;
      for i = 2 to 4 do
        let req = Protocol.Insert { collection = "refs"; xml = paper i } in
        ignore (call_ok single req);
        ignore (call_ok routed req)
      done;
      (* Partitioned queries: fan-out + canonical merge == one server. *)
      List.iter
        (fun q ->
          let req = query_request ~cache:false q in
          let a = call_ok single req and b = call_ok routed req in
          checkb (label ^ " version agrees: " ^ q) true
            (member_int "version" a = member_int "version" b);
          checkb (label ^ " count agrees: " ^ q) true
            (member_int "count" a = member_int "count" b);
          checkb (label ^ " witnesses agree: " ^ q) true
            (payload_canonical a = payload_canonical b))
        queries;
      (* Replicated collection: routed to one shard, same answer. *)
      let rq =
        Protocol.Query
          {
            collection = "refs";
            tql = "MATCH #1:paper(/#2:title) WHERE #2.content ~ \"T3\" SELECT #1";
            mode = Executor.Toss;
            cache = false;
          }
      in
      let a = call_ok single rq and b = call_ok routed rq in
      checkb (label ^ " replicated query agrees") true
        (payload_canonical a = payload_canonical b
        && member_int "count" a = member_int "count" b);
      (* Join with a replicated right side: broadcast L_i ⋈ R is exact. *)
      let jreq =
        Protocol.Join
          { left = "bib"; right = "refs"; tql = join_tql; mode = Executor.Toss }
      in
      let a = call_ok single jreq and b = call_ok routed jreq in
      checkb (label ^ " join witnesses agree") true
        (payload_canonical a = payload_canonical b);
      checkb (label ^ " join count agrees") true
        (member_int "count" a = member_int "count" b);
      checkb (label ^ " join versions agree") true
        (member_int "left_version" a = member_int "left_version" b
        && member_int "right_version" a = member_int "right_version" b);
      (* Both sides partitioned over >1 shard: typed refusal, not a
         silently inexact answer. *)
      ignore (call_ok single (Protocol.Insert { collection = "bib2"; xml = paper 9 }));
      ignore (call_ok routed (Protocol.Insert { collection = "bib2"; xml = paper 9 }));
      (match
         Client.call routed
           (Protocol.Join
              { left = "bib"; right = "bib2"; tql = join_tql; mode = Executor.Toss })
       with
      | Error (Client.Wire e) ->
          checks (label ^ " partitioned-partitioned join refused") "query_error"
            (Protocol.code_name e.Protocol.code)
      | Ok _ | Error (Client.Transport _) ->
          Alcotest.fail (label ^ " expected query_error for partitioned join"));
      (* Shadow names are reserved for the router's own mirroring. *)
      (match
         Client.call routed
           (Protocol.Insert { collection = ".vocab.bib"; xml = paper 1 })
       with
      | Error (Client.Wire e) ->
          checks (label ^ " shadow collection rejected") "bad_request"
            (Protocol.code_name e.Protocol.code)
      | Ok _ | Error (Client.Transport _) ->
          Alcotest.fail (label ^ " expected bad_request for shadow name"));
      Client.close single;
      Client.close routed;
      stop_router ();
      stop1 ();
      stop2 ();
      stop_single ())
    combos

let test_router_shard_loss () =
  let s1, stop1 = start_server () in
  let s2, stop2 = start_server () in
  let router_addr, stop_router = start_router ~connect_retry_ms:50 [ s1; s2 ] in
  let conn = Result.get_ok (Client.connect router_addr) in
  for i = 1 to 4 do
    ignore (call_ok conn (Protocol.Insert { collection = "bib"; xml = paper i }))
  done;
  let full = call_ok conn (query_request ~cache:false tql) in
  checkb "full answer before the loss" true (member_int "count" full = Some 4);
  checkb "not partial when all shards answer" true
    (J.member "partial" full = None);
  (* Kill shard 2 out from under the router. *)
  stop2 ();
  (match Client.call conn (query_request ~cache:false tql) with
  | Error (Client.Wire e) ->
      checks "typed shard_unavailable" "shard_unavailable"
        (Protocol.code_name e.Protocol.code)
  | Ok _ | Error (Client.Transport _) -> Alcotest.fail "expected shard_unavailable");
  (* Opting in gets the survivors' merged answer, stamped partial. *)
  (match
     Client.call_response conn ~allow_partial:true (query_request ~cache:false tql)
   with
  | Ok { Protocol.body = Ok payload; _ } ->
      checkb "partial stamp" true (J.member "partial" payload = Some (J.Bool true));
      let failed =
        Option.value ~default:[]
          (Option.bind (J.member "failed" payload) J.to_list)
      in
      checkb "failed shard named" true (List.length failed = 1);
      let n = Option.get (member_int "count" payload) in
      checkb "survivors' answer is a sub-multiset" true (n >= 0 && n <= 4)
  | Ok { Protocol.body = Error e; _ } ->
      Alcotest.fail ("partial query failed: " ^ e.Protocol.message)
  | Error f -> Alcotest.fail (Client.failure_to_string f));
  (* Inserts are never partial: a half-applied write would silently
     diverge the shards. *)
  (match
     Client.call conn ~allow_partial:true
       (Protocol.Insert { collection = "bib"; xml = paper 9 })
   with
  | Error (Client.Wire e) ->
      checks "insert refuses partial application" "shard_unavailable"
        (Protocol.code_name e.Protocol.code)
  | Ok _ | Error (Client.Transport _) -> Alcotest.fail "expected shard_unavailable");
  Client.close conn;
  stop_router ();
  stop1 ()

let test_router_admission () =
  (* The router sheds at the door like [toss serve]: with no worker and
     no queue every pooled request is [overloaded], while ping, stats
     and metrics still answer inline. *)
  let s1, stop1 = start_server () in
  let s2, stop2 = start_server () in
  let router, stop_router = start_router ~domains:0 ~max_queue:0 [ s1; s2 ] in
  let conn = Result.get_ok (Client.connect router) in
  (match Client.call conn (query_request tql) with
  | Error (Client.Wire e) ->
      checks "router sheds a query" "overloaded" (Protocol.code_name e.Protocol.code)
  | Ok _ | Error (Client.Transport _) -> Alcotest.fail "expected overloaded");
  List.iter
    (fun request ->
      match Client.call conn request with
      | Ok _ -> ()
      | Error f ->
          Alcotest.fail
            (Protocol.op_name request ^ " under overload: "
            ^ Client.failure_to_string f))
    [ Protocol.Ping; Protocol.Stats; Protocol.Metrics ];
  Client.close conn;
  stop1 ();
  stop2 ();
  stop_router ()

let test_router_spent_budget () =
  (* A spent budget is never fanned out. Behind the front end, a query
     sent with deadline_ms = 0 dies in the router's queue, even with
     both shards down. *)
  let s1, stop1 = start_server () in
  let s2, stop2 = start_server () in
  let router, stop_router = start_router [ s1; s2 ] in
  stop1 ();
  stop2 ();
  let conn = Result.get_ok (Client.connect router) in
  (match Client.call conn ~deadline_ms:0 (query_request tql) with
  | Error (Client.Wire e) ->
      checks "spent budget with both shards down" "deadline_exceeded"
        (Protocol.code_name e.Protocol.code)
  | Ok _ | Error (Client.Transport _) -> Alcotest.fail "expected deadline_exceeded");
  Client.close conn;
  stop_router ();
  (* The backend checks the budget itself before each hop: called with a
     deadline already past, it contacts no shard, not even to connect,
     which against these dead addresses would retry for seconds. *)
  let dead = [ temp_name "toss_dead"; temp_name "toss_dead" ] in
  let map = Result.get_ok (Shard_map.make ~shards:dead ~replicated:[]) in
  let router = Router.create ~connect_retry_ms:5000 map in
  let t0 = Unix.gettimeofday () in
  let env request =
    {
      Protocol.id = None;
      deadline_ms = None;
      trace_id = None;
      allow_partial = false;
      request;
    }
  in
  List.iter
    (fun request ->
      match
        fst
          (Router.dispatch router ~deadline:(Some (t0 -. 1.)) ~trace_id:"spent"
             (env request))
      with
      | Error e ->
          checks
            (Protocol.op_name request ^ " with a spent budget")
            "deadline_exceeded" (Protocol.code_name e.Protocol.code)
      | Ok _ -> Alcotest.fail "expected deadline_exceeded")
    [
      query_request tql;
      Protocol.Insert { collection = "bib"; xml = paper 1 };
      Protocol.Explain { collection = "bib"; tql; mode = Executor.Toss };
    ];
  checkb "no shard contacted" true (Unix.gettimeofday () -. t0 < 1.);
  Router.close router

(* A shard's version of [collection], asked of the shard directly: the
   number of documents it holds, 0 while it holds none. *)
let shard_version addr collection =
  let conn = Result.get_ok (Client.connect addr) in
  let v =
    match
      Client.call conn
        (Protocol.Query { collection; tql; mode = Executor.Toss; cache = false })
    with
    | Ok payload -> Option.get (member_int "version" payload)
    | Error (Client.Wire e) when e.Protocol.code = Protocol.Unknown_collection -> 0
    | Error f -> Alcotest.fail (Client.failure_to_string f)
  in
  Client.close conn;
  v

let test_router_replicated_insert () =
  (* A replicated insert lands on every replica or on none. The budget
     is checked once, before anything is sent: a spent one reaches no
     replica, and a live one is not checked again per replica, so a
     replica whose pooled connection went stale still gets the document
     after its reconnect outlasted the budget. *)
  let s1, stop1 = start_server () in
  let db2 = temp_name "toss_replica_db" and path2 = temp_name "toss_replica" in
  let s2, stop2 = start_server ~db_dir:db2 ~socket_path:path2 () in
  let map =
    Result.get_ok (Shard_map.make ~shards:[ s1; s2 ] ~replicated:[ "refs" ])
  in
  let router = Router.create ~connect_retry_ms:5000 map in
  let insert ~deadline i =
    fst
      (Router.dispatch router ~deadline ~trace_id:"replicated"
         {
           Protocol.id = None;
           deadline_ms = None;
           trace_id = None;
           allow_partial = false;
           request = Protocol.Insert { collection = "refs"; xml = paper i };
         })
  in
  let on_both label n =
    checki (label ^ ": replica 0") n (shard_version s1 "refs");
    checki (label ^ ": replica 1") n (shard_version s2 "refs")
  in
  (match insert ~deadline:(Some (Unix.gettimeofday () -. 1.)) 1 with
  | Error e ->
      checks "spent budget" "deadline_exceeded" (Protocol.code_name e.Protocol.code)
  | Ok _ -> Alcotest.fail "expected deadline_exceeded");
  on_both "spent budget sends nothing" 0;
  (match insert ~deadline:None 1 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e.Protocol.message);
  on_both "first insert" 1;
  (* Replica 1 restarts 0.4 s from now at the same address, so the
     router's pooled connection to it is stale and its reconnect takes
     twice the insert's 0.2 s budget. *)
  stop2 ();
  let restarted = ref None in
  let restarter =
    Thread.create
      (fun () ->
        Thread.delay 0.4;
        restarted := Some (start_server ~db_dir:db2 ~socket_path:path2 ()))
      ()
  in
  (match insert ~deadline:(Some (Unix.gettimeofday () +. 0.2)) 2 with
  | Ok _ -> ()
  | Error e ->
      Alcotest.fail ("insert across a replica restart: " ^ e.Protocol.message));
  Thread.join restarter;
  on_both "insert across a replica restart" 2;
  Router.close router;
  stop1 ();
  snd (Option.get !restarted) ()

let test_router_shutdown_drains () =
  (* A shutdown drains the router's queue before the router stops its
     shards: a request accepted before the shutdown is answered, not
     refused by a stopping shard or failed against a stopped one after
     a connect retry. The shutdown is pipelined behind the queries on one connection, so the
     reader has queued every query when it reaches the shutdown, and
     with one router worker most of them are still waiting. *)
  let s1, stop1 = start_server () in
  let s2, stop2 = start_server () in
  let router, stop_router =
    start_router ~domains:1 ~connect_retry_ms:1000 [ s1; s2 ]
  in
  let conn = Result.get_ok (Client.connect router) in
  for i = 1 to 8 do
    ignore (call_ok conn (Protocol.Insert { collection = "bib"; xml = paper i }))
  done;
  Client.close conn;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX router);
  let oc = Unix.out_channel_of_descr fd in
  let ic = Unix.in_channel_of_descr fd in
  let n = 48 in
  let line id request =
    output_string oc
      (Protocol.request_to_line
         {
           Protocol.id = Some id;
           deadline_ms = None;
           trace_id = None;
           allow_partial = false;
           request;
         });
    output_char oc '\n'
  in
  for i = 1 to n do
    line i (query_request ~cache:false tql)
  done;
  line 0 Protocol.Shutdown;
  flush oc;
  let answered = ref 0 and stopping = ref false in
  for _ = 0 to n do
    match Protocol.parse_response (input_line ic) with
    | Ok { Protocol.rid = Some 0; body = Ok payload; _ } ->
        stopping := J.member "stopping" payload = Some (J.Bool true)
    | Ok { Protocol.body = Ok _; _ } -> incr answered
    | Ok { Protocol.body = Error e; _ } ->
        Alcotest.fail
          (Protocol.code_name e.Protocol.code ^ " during shutdown: "
         ^ e.Protocol.message)
    | Error msg -> Alcotest.fail msg
  done;
  checki "every query accepted before the shutdown answered" n !answered;
  checkb "shutdown answered" true !stopping;
  Unix.close fd;
  stop_router ();
  stop1 ();
  stop2 ()

let test_loadgen_open_loop () =
  let addr, stop = start_server () in
  let cfg =
    {
      (Loadgen.default_config ~target:addr) with
      Loadgen.requests = 40;
      qps = 400.;
      concurrency = 4;
      n_papers = 10;
    }
  in
  (match Loadgen.run cfg with
  | Error msg -> Alcotest.fail msg
  | Ok r ->
      checkb "no request failed" true (not (Loadgen.failed r));
      checki "every request answered" 40 r.Loadgen.ok;
      checkb "corpus ingested through the wire" true (r.Loadgen.docs > 0);
      checkb "rate measured" true (r.Loadgen.achieved_qps > 0.);
      checkb "percentiles ordered" true
        (r.Loadgen.p50_ms <= r.Loadgen.p99_ms
        && r.Loadgen.p99_ms <= r.Loadgen.p999_ms
        && r.Loadgen.p999_ms <= r.Loadgen.max_ms));
  stop ()

let () =
  Alcotest.run "toss_server"
    [
      ( "protocol",
        [
          Alcotest.test_case "request round-trip" `Quick test_protocol_roundtrip;
          Alcotest.test_case "request errors" `Quick test_protocol_errors;
          Alcotest.test_case "response round-trip" `Quick test_response_roundtrip;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit/delta/miss/evict" `Quick test_cache_basics;
          Alcotest.test_case "eviction queue bounded" `Quick
            test_cache_order_bounded;
          Alcotest.test_case "entries hold their SEO weakly" `Quick
            test_cache_holds_seo_weakly;
        ] );
      ( "pool",
        [
          Alcotest.test_case "runs and drains" `Quick test_pool_runs_jobs;
          Alcotest.test_case "sheds when full" `Quick test_pool_sheds;
        ] );
      ( "engine",
        [
          Alcotest.test_case "cache hit, delta and miss" `Quick
            test_engine_cache_and_extension;
          Alcotest.test_case "deadline" `Quick test_engine_deadline;
          Alcotest.test_case "explain and stats" `Quick test_engine_explain_and_stats;
          Alcotest.test_case "hydration" `Quick test_engine_hydration;
          Alcotest.test_case "cache follows the SEO across collections" `Quick
            test_engine_cache_follows_the_seo;
          Alcotest.test_case "cached answers equal uncached" `Quick
            test_cache_ops_equal_uncached;
          Alcotest.test_case "cache faults caught" `Quick test_cache_faults_caught;
        ] );
      ( "snapshot isolation",
        [
          Alcotest.test_case "writer does not move a pin" `Quick
            test_snapshot_isolation;
          Alcotest.test_case "parallel pinned queries" `Quick
            test_parallel_pinned_queries;
        ] );
      ( "binary codec",
        [
          QCheck_alcotest.to_alcotest prop_binary_value_roundtrip;
          QCheck_alcotest.to_alcotest prop_binary_envelope_roundtrip;
          QCheck_alcotest.to_alcotest prop_truncated_frame_rejected;
          Alcotest.test_case "oversized and corrupt frames" `Quick
            test_oversized_frame_rejected;
          QCheck_alcotest.to_alcotest prop_cross_codec_responses;
        ] );
      ( "live server",
        [
          Alcotest.test_case "stress replay" `Slow test_stress_replay;
          Alcotest.test_case "cache metrics over the wire" `Quick
            test_stress_cache_metrics;
          Alcotest.test_case "overload and deadline" `Quick
            test_overload_and_deadline_wire;
          Alcotest.test_case "hydration across restart" `Quick
            test_server_hydration;
          Alcotest.test_case "half-close drains responses" `Quick
            test_half_close_drains_responses;
          Alcotest.test_case "socket claiming" `Quick test_socket_claiming;
          Alcotest.test_case "tcp transport and binary codec" `Quick
            test_tcp_and_binary_live;
          Alcotest.test_case "connect retry" `Quick test_connect_retry;
        ] );
      ( "sharded router",
        [
          Alcotest.test_case "differential gate vs single server" `Slow
            test_router_differential_gate;
          Alcotest.test_case "shard loss and partial results" `Quick
            test_router_shard_loss;
          Alcotest.test_case "router admission control" `Quick
            test_router_admission;
          Alcotest.test_case "router never forwards a spent budget" `Quick
            test_router_spent_budget;
          Alcotest.test_case "router replicated insert is all or none" `Quick
            test_router_replicated_insert;
          Alcotest.test_case "router shutdown drains accepted work" `Quick
            test_router_shutdown_drains;
          Alcotest.test_case "open-loop load generator" `Quick
            test_loadgen_open_loop;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "trace id echo and timing" `Quick test_trace_echo;
          Alcotest.test_case "multi-domain slow capture" `Quick
            test_multidomain_slow_capture;
          Alcotest.test_case "slow log skips unfinished runs" `Quick
            test_slow_log_executed_only;
          Alcotest.test_case "access log" `Quick test_access_log;
          Alcotest.test_case "utf-8 collection in logs" `Quick
            test_utf8_collection_logs;
        ] );
    ]
