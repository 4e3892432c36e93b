(* servebench: drives real [toss serve] / [toss router] processes open loop
   and reports end-to-end and per-layer metrics. See ../README.md. *)

module P = Toss_server.Protocol
module J = Toss_json

open Slot

let now = Unix.gettimeofday

type workload = {
  name : string;
  papers : int;  (** corpus ingested during set-up *)
  shape : Mix.shape;
  zipf : float option;  (** [None]: uniform over the read mix *)
  rate : float;
      (** offered open-loop requests per second: a constant between a
          fifth and a third of the workload's saturation throughput on the
          seed code, never derived from the current run, so both sides of
          a comparison offer the same load *)
  insert_every : int option;
  router : bool;
  codec : P.codec;
}

(* The first two are the gated workloads (BENCHMARK.json). The others
   stay runnable by name for their per-layer figures — the router's among
   them — but their sub-millisecond tails are set by the host rather than
   by the code on a small VM; see README.md. *)
let workloads =
  [
    { name = "write-mix"; papers = 6; shape = Mix.Wide; zipf = None; rate = 450.;
      insert_every = Some 150; router = false; codec = P.Json };
    { name = "hot-write"; papers = 6; shape = Mix.Hot; zipf = Some 1.1; rate = 450.;
      insert_every = Some 150; router = false; codec = P.Json };
    { name = "hot-set"; papers = 30; shape = Mix.Hot; zipf = Some 1.1; rate = 3000.;
      insert_every = None; router = false; codec = P.Json };
    { name = "wide-set"; papers = 60; shape = Mix.Wide; zipf = None; rate = 1900.;
      insert_every = None; router = false; codec = P.Json };
    { name = "router-scatter"; papers = 30; shape = Mix.Hot; zipf = Some 1.1; rate = 570.;
      insert_every = None; router = true; codec = P.Binary };
  ]

let setups = 5
let sat_seconds = 2.5
let sat_depth = 8
let late_limit_ms = 5.

(* Responses kept whole, for the traced run's codec timings. *)
let keep_full = 500
let drain_s = 20.
let max_checked = 400

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("servebench: " ^ m); exit 2) fmt

(* ---- deployment ---------------------------------------------------- *)

type deployment = { procs : Procs.proc list; front : string; shards : string list }

let start ~toss ~dir w =
  if w.router then
    let s0 = Procs.serve ~toss ~dir ~name:"shard0" ~domains:1 in
    let s1 = Procs.serve ~toss ~dir ~name:"shard1" ~domains:1 in
    let r = Procs.router ~toss ~dir ~shards:[ s0; s1 ] in
    { procs = [ s0; s1; r ]; front = r.Procs.sock; shards = [ s0.Procs.sock; s1.Procs.sock ] }
  else
    let s = Procs.serve ~toss ~dir ~name:"server" ~domains:2 in
    { procs = [ s ]; front = s.Procs.sock; shards = [] }

let connect codec addr =
  match Conn.connect ~codec addr with Ok c -> c | Error e -> fail "connect %s: %s" addr e

(* Shutdown cascades from the router to its shards. *)
let stop d =
  (match Conn.connect ~codec:P.Json d.front with
  | Ok c ->
      ignore (Conn.call c (env 0 P.Shutdown));
      Conn.close c
  | Error _ -> ());
  List.iter (Procs.reap ~timeout:10.) d.procs

let ok_call c id req what =
  match Conn.call c (env id req) with
  | Ok ({ P.body = Ok _; _ } as r) -> r
  | Ok { P.body = Error e; _ } -> fail "%s: %s" what e.P.message
  | Error e -> fail "%s: %s" what e

(* ---- set-up -------------------------------------------------------- *)

type live = {
  dep : deployment;
  conns : Conn.t array;
  setup_s : float;
  visible_ms : float;  (** last ingest insert -> the first read at its version *)
  events : Measure.event list;  (** ingest inserts and warm-up reads *)
}

(* From process start until the corpus is ingested over the wire and the
   warm-up reads (the first of which rebuilds the SEO) have answered. *)
let setup ~toss ~root ~answers w mix k =
  let dir = Filename.concat root (Printf.sprintf "s%d" k) in
  Unix.mkdir dir 0o755;
  let t0 = now () in
  let dep = start ~toss ~dir w in
  let c = connect w.codec dep.front in
  let ingest =
    Array.to_list
      (Array.mapi
         (fun i xml ->
           let sent = now () in
           let r = ok_call c i (insert_req xml) "ingest" in
           { Measure.op = Measure.Insert; sent; received = now (); version = version r;
             xml_bytes = String.length xml })
         mix.Mix.docs)
  in
  let warm_queries =
    match w.shape with
    | Mix.Hot -> Array.to_list mix.Mix.queries
    | Mix.Wide -> List.filteri (fun i _ -> i < 50) (Array.to_list mix.Mix.queries)
  in
  let warm =
    List.mapi
      (fun i tql ->
        let sent = now () in
        let r = ok_call c (100_000 + i) (read_req tql) "warm-up" in
        record answers tql r;
        { Measure.op = Measure.Read; sent; received = now (); version = version r; xml_bytes = 0 })
      warm_queries
  in
  let conns = [| c; connect w.codec dep.front |] in
  let setup_s = now () -. t0 in
  let last_insert = List.fold_left (fun _ e -> e.Measure.sent) t0 ingest in
  let first_read = List.hd warm in
  {
    dep;
    conns;
    setup_s;
    visible_ms = (first_read.Measure.received -. last_insert) *. 1000.;
    events = ingest @ warm;
  }

let teardown l =
  Array.iter Conn.close l.conns;
  stop l.dep

(* ---- the open-loop window ------------------------------------------ *)

let request_of mix = function
  | Read tql -> read_req tql
  | Insert i -> insert_req (mix.Mix.insert_doc i)
  | Probe i -> read_req (mix.Mix.probe i)

let ok_insert s =
  match (s.kind, s.resp) with Insert _, Some (Ok { P.body = Ok _; _ }) -> true | _ -> false

(* A sender (this thread) writes each request when it is due, on the
   connection with the fewest outstanding; a receiver thread reads every
   answer and, on an insert's acknowledgement, sends that insert's
   visibility probe. Two threads, two connections. *)
let window ~seed ~traced ~answers mix live (sched : Schedule.t) =
  let n = Array.length sched.Schedule.due in
  let n_ins = Schedule.n_inserts sched in
  let t0 = now () +. 0.05 in
  (* at most ~1000 traced requests, interleaved with untraced ones *)
  let trace_every = max 2 (n / 1000) in
  let slots =
    Array.init (n + n_ins) (fun i ->
        let kind, due =
          if i < n then
            ( (match sched.Schedule.kinds.(i) with
              | Schedule.Read q -> Read mix.Mix.queries.(q)
              | Schedule.Insert j -> Insert j),
              t0 +. sched.Schedule.due.(i) )
          else (Probe (i - n), Float.nan)
        in
        let trace_id =
          match kind with
          | Read _ when traced && i mod trace_every = 1 -> Some (Printf.sprintf "sb%d-%d" seed i)
          | _ -> None
        in
        { kind; due; trace_id; sent = Float.nan; recv = Float.nan; resp = None })
  in
  let conns = live.conns in
  let dead = Array.make (Array.length conns) false in
  let sender_done = Atomic.make false in
  let expected = Atomic.make n and got = Atomic.make 0 in
  let send ci id =
    let s = slots.(id) in
    s.sent <- now ();
    try Conn.send conns.(ci) (env ?trace_id:s.trace_id id (request_of mix s.kind))
    with Unix.Unix_error _ ->
      s.resp <- Some (Error "send failed");
      Atomic.incr got
  in
  let last_due = t0 +. sched.Schedule.due.(n - 1) in
  let receiver () =
    while
      (not (Atomic.get sender_done && Atomic.get got >= Atomic.get expected))
      && now () < last_due +. drain_s
      && Array.exists not dead
    do
      let live_fds =
        List.filter_map
          (fun ci -> if dead.(ci) then None else Some conns.(ci).Conn.fd)
          (List.init (Array.length conns) Fun.id)
      in
      let ready, _, _ = try Unix.select live_fds [] [] 0.05 with Unix.Unix_error _ -> ([], [], []) in
      List.iter
        (fun fd ->
          let ci = ref 0 in
          Array.iteri (fun i c -> if c.Conn.fd = fd then ci := i) conns;
          match Conn.read_ready conns.(!ci) with
          | None -> dead.(!ci) <- true
          | Some raws ->
              let recv = now () in
              List.iter
                (fun raw ->
                  match Conn.decode conns.(!ci).Conn.codec raw with
                  | Ok ({ P.rid = Some id; _ } as r) when id >= 0 && id < Array.length slots ->
                      let s = slots.(id) in
                      s.recv <- recv;
                      (match (s.kind, r.P.body) with
                      | Read tql, Ok _ -> record answers tql r
                      | Probe j, Ok _ -> record answers (mix.Mix.probe j) r
                      | _ -> ());
                      s.resp <- Some (Ok (if id < keep_full || s.trace_id <> None then r else strip r));
                      Atomic.incr got;
                      (match s.kind with
                      | Insert j when ok_insert s ->
                          Atomic.incr expected;
                          send !ci (n + j)
                      | _ -> ())
                  | _ -> Atomic.incr got)
                raws)
        ready
    done
  in
  let rx = Thread.create receiver () in
  for i = 0 to n - 1 do
    let wait = slots.(i).due -. now () in
    if wait > 0. then Thread.delay wait;
    let ci =
      if dead.(0) then 1
      else if dead.(1) then 0
      else
        let o0 = Atomic.get conns.(0).Conn.outstanding
        and o1 = Atomic.get conns.(1).Conn.outstanding in
        if o0 < o1 then 0 else if o1 < o0 then 1 else i mod 2
    in
    send ci i
  done;
  Atomic.set sender_done true;
  Thread.join rx;
  slots

(* ---- saturation ----------------------------------------------------- *)

type sat = { qps : float; attempted : int; failed : int }

(* Closed loop over both connections, replaying the window's mix in
   order: each connection keeps [sat_depth] requests outstanding and sends
   the next as soon as one answers, so the servers never wait on the
   generator. *)
let saturate mix live (sched : Schedule.t) =
  let conns = live.conns in
  let n = Array.length sched.Schedule.kinds in
  let next = ref 0 and ins = ref 0 in
  let failed = ref 0 and done_at = ref [] in
  let inflight = Hashtbl.create 16 in
  let send ci =
    let kind =
      match sched.Schedule.kinds.(!next mod n) with
      | Schedule.Read q -> Read mix.Mix.queries.(q)
      | Schedule.Insert _ ->
          incr ins;
          Insert (!ins - 1)
    in
    let id = 1_000_000 + !next in
    incr next;
    Hashtbl.replace inflight id kind;
    Conn.send conns.(ci) (env id (request_of mix kind))
  in
  let t0 = now () in
  let t_end = t0 +. sat_seconds in
  Array.iteri (fun ci _ -> for _ = 1 to sat_depth do send ci done) conns;
  while Hashtbl.length inflight > 0 && now () < t_end +. drain_s do
    let fds = Array.to_list (Array.map (fun c -> c.Conn.fd) conns) in
    let ready, _, _ = Unix.select fds [] [] 0.05 in
    List.iter
      (fun fd ->
        let ci = if conns.(0).Conn.fd = fd then 0 else 1 in
        match Conn.read_ready conns.(ci) with
        | None -> fail "saturation: connection closed"
        | Some raws ->
            List.iter
              (fun raw ->
                let t = now () in
                (match Conn.decode conns.(ci).Conn.codec raw with
                | Ok { P.rid = Some id; body = Ok _; _ } when Hashtbl.mem inflight id ->
                    Hashtbl.remove inflight id;
                    done_at := t :: !done_at
                | Ok { P.rid = Some id; _ } ->
                    Hashtbl.remove inflight id;
                    incr failed
                | _ -> incr failed);
                if t < t_end then send ci)
              raws)
      ready
  done;
  failed := !failed + Hashtbl.length inflight;
  (* Read-only mixes: the median rate over ten equal slices of the
     phase, so a host stall of a few milliseconds moves one slice rather
     than the result. A mix with inserts runs in rebuild-sized cycles, so
     it is timed whole. *)
  let slices = if !ins > 0 then 1 else 10 in
  let len = sat_seconds /. float_of_int slices in
  let counts = Array.make slices 0 in
  List.iter
    (fun t -> if t < t_end then let i = min (slices - 1) (int_of_float ((t -. t0) /. len)) in counts.(i) <- counts.(i) + 1)
    !done_at;
  { qps = Stats.median (Array.map (fun c -> float_of_int c /. len) counts);
    attempted = !next; failed = !failed }

(* ---- server-side counters ------------------------------------------ *)

let evictions c =
  let r = ok_call c 2_000_000 P.Metrics "metrics" in
  match Option.bind (result r) (fun v -> Option.bind (J.member "prometheus" v) J.to_str) with
  | None -> 0.
  | Some text ->
      List.fold_left
        (fun acc line ->
          let name = "server_cache_evictions" in
          let l = String.length name in
          if String.length line > l && String.sub line 0 l = name
             && (line.[l] = ' ' || line.[l] = '{')
          then
            match String.rindex_opt line ' ' with
            | Some i -> acc +. float_of_string (String.sub line (i + 1) (String.length line - i - 1))
            | None -> acc
          else acc)
        0. (String.split_on_char '\n' text)

(* ---- output -------------------------------------------------------- *)

let ms_list f l = Array.of_list (List.map f l)

let pct a q = Stats.percentile (Stats.sorted a) q

let print_metric (name, value, unit) = Printf.printf "  %-28s %14.4f %s\n" name value unit

let emit ~correct ~attempted ~failed metrics =
  List.iter print_metric metrics;
  let m =
    J.Obj
      (List.map
         (fun (name, value, unit) -> (name, J.Obj [ ("value", J.Num value); ("unit", J.Str unit) ]))
         metrics)
  in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Num (float_of_int attempted));
            ("failed", J.Num (float_of_int failed));
            ("metrics", m);
          ]))

(* ---- main ---------------------------------------------------------- *)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  at_exit Procs.kill_all;
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let toss = ref "" and work = ref ".bench_tmp" and out = ref ".bench_out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--toss", Arg.Set_string toss, "PATH to toss.exe");
      ("--work", Arg.Set_string work, "DIR for server state");
      ("--out", Arg.Set_string out, "DIR for span files");
    ]
    (fun a -> fail "unexpected argument %s" a)
    "main.exe --workload NAME --seed N --seconds S --trace 0|1 --toss PATH";
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        fail "unknown workload %S (one of %s)" !workload
          (String.concat ", " (List.map (fun w -> w.name) workloads))
  in
  if not (Sys.file_exists !toss) then fail "no toss executable at %S" !toss;
  let traced = !trace = 1 in
  let seed = !seed in
  if not (Sys.file_exists !work) then Unix.mkdir !work 0o755;
  let root = Filename.concat !work (Printf.sprintf "%s-%d-%d" w.name seed (Unix.getpid ())) in
  Unix.mkdir root 0o755;
  let mix = Mix.make ~seed ~n_papers:w.papers w.shape in
  let sched =
    Schedule.make ~seed ~rate:w.rate ~seconds:!seconds ~n_queries:(Array.length mix.Mix.queries)
      ?zipf:w.zipf ?insert_every:w.insert_every ()
  in
  (* Set up [setups] times. The first deployment runs the saturation
     phase, so that phase starts from the same state as the window and
     leaves that state untouched; the last one runs the window. *)
  let answers = answers () in
  let sat = ref None in
  let rec set_up k acc =
    let l = setup ~toss:!toss ~root ~answers w mix k in
    if k = 1 then sat := Some (saturate mix l sched);
    if k < setups then (
      teardown l;
      set_up (k + 1) (l :: acc))
    else (l, List.rev (l :: acc))
  in
  let live, all_setups = set_up 1 [] in
  let sat = Option.get !sat in
  let base_version = Array.length mix.Mix.docs in
  let evictions_before = if w.router then 0. else evictions live.conns.(0) in
  let slots = window ~seed ~traced ~answers mix live sched in
  let evictions_after = if w.router then 0. else evictions live.conns.(0) in
  let n_window_inserts = Array.fold_left (fun a s -> if ok_insert s then a + 1 else a) 0 slots in
  (* Shard answers for the router merge replay, fetched straight from the
     shards while they still run. *)
  let shard_answers =
    if traced && w.router then
      List.map
        (fun tql ->
          List.map
            (fun sock ->
              let c = connect P.Binary sock in
              let r = ok_call c 0 (read_req tql) "shard read" in
              Conn.close c;
              Option.value (trees r) ~default:[])
            live.dep.shards)
        (Array.to_list mix.Mix.queries)
    else []
  in
  let rss_mb = List.fold_left (fun a p -> a +. Procs.peak_rss_mb p) 0. live.dep.procs in
  let db_bytes =
    List.fold_left
      (fun a p -> match p.Procs.db with Some d -> a + Measure.dir_bytes d | None -> a)
      0 live.dep.procs
  in
  teardown live;
  Procs.remove_tree root;
  (* ---- answers ---- *)
  let answered s = match s.resp with Some (Ok { P.body = Ok _; _ }) -> true | _ -> false in
  let keys = Hashtbl.fold (fun k v acc -> (k, v) :: acc) answers.first [] |> List.sort compare in
  let later, at_base = List.partition (fun ((_, v), _) -> v > base_version) keys in
  let to_check = later @ List.filteri (fun i _ -> i < max_checked) at_base in
  let docs =
    let by_id = Hashtbl.create 64 in
    Array.iter
      (fun s ->
        match (s.kind, s.resp) with
        | Insert i, Some (Ok r) when ok_insert s -> (
            match field_int "doc_id" r with
            | Some id -> Hashtbl.replace by_id id (mix.Mix.insert_doc i)
            | None -> ())
        | _ -> ())
      slots;
    Array.append mix.Mix.docs
      (Array.init (Hashtbl.length by_id) (fun j ->
           Option.value (Hashtbl.find_opt by_id (base_version + j)) ~default:""))
  in
  let wrong =
    Replay.check ~docs
      (List.map
         (fun ((tql, version), trees) -> { Replay.version; tql; trees })
         to_check)
  in
  let wrong_responses =
    List.fold_left
      (fun n a -> n + Option.value (Hashtbl.find_opt answers.count (a.Replay.tql, a.Replay.version)) ~default:0)
      answers.inconsistent wrong
  in
  (* ---- window statistics ---- *)
  let reads =
    List.filter (fun s -> match s.kind with Read _ -> true | _ -> false) (Array.to_list slots)
  in
  let ok_reads = List.filter answered reads in
  let lat = ms_list (fun s -> (s.recv -. s.due) *. 1000.) ok_reads in
  let late = ms_list (fun s -> (s.sent -. s.due) *. 1000.) reads in
  let attempted = Array.length slots + sat.attempted in
  let transport_or_wire = Array.fold_left (fun a s -> if answered s then a else a + 1) 0 slots in
  let failed = transport_or_wire + wrong_responses + sat.failed in
  let events_of slots =
    Array.to_list slots
    |> List.filter_map (fun s ->
           let op = match s.kind with Insert _ -> Measure.Insert | _ -> Measure.Read in
           if Float.is_nan s.sent then None
           else
             Some
               { Measure.op; sent = s.sent; received = s.recv;
                 version = (match s.resp with Some (Ok r) when answered s -> version r | _ -> None);
                 xml_bytes = (match s.kind with Insert i -> String.length (mix.Mix.insert_doc i) | _ -> 0) })
  in
  let window_events = events_of slots in
  let writes = n_window_inserts > 0 in
  let insert_ms, visible_ms =
    if writes then
      ( ms_list (fun e -> (e.Measure.received -. e.Measure.sent) *. 1000.)
          (List.filter (fun e -> e.Measure.op = Measure.Insert && e.Measure.version <> None) window_events),
        Array.of_list (Measure.visible_ms window_events) )
    else
      (* read-only mixes: the set-ups' ingest inserts, and the first read
         after each ingest *)
      ( ms_list (fun e -> (e.Measure.received -. e.Measure.sent) *. 1000.)
          (List.concat_map
             (fun l -> List.filter (fun e -> e.Measure.op = Measure.Insert) l.events)
             all_setups),
        Array.of_list (List.map (fun l -> l.visible_ms) all_setups) )
  in
  let space_amp =
    Measure.space_amp ~db_bytes (live.events @ window_events)
  in
  let n_lat = Array.length lat in
  let late_p95 = pct late 0.95 in
  let invalid =
    List.filter_map Fun.id
      [
        (if late_p95 > late_limit_ms then
           Some (Printf.sprintf "generator ran late: p95 %.2f ms > %.0f ms" late_p95 late_limit_ms)
         else None);
        (if w.rate > sat.qps /. 2. then
           Some (Printf.sprintf "offered rate %.0f/s exceeds half of sat_qps %.0f/s" w.rate sat.qps)
         else None);
        (if not (Stats.supported ~n:n_lat 0.95) then
           Some (Printf.sprintf "%d reads leave fewer than %d samples beyond p95" n_lat Stats.min_beyond)
         else None);
      ]
  in
  Printf.printf "servebench %s seed=%d rate=%.0f/s queries=%d reads=%d inserts=%d setups=%d\n"
    w.name seed w.rate (Array.length mix.Mix.queries) n_lat n_window_inserts setups;
  Printf.printf "answer checks: %d queries checked against an in-process session, %d wrong, %d inconsistent\n"
    (List.length to_check) (List.length wrong) answers.inconsistent;
  Printf.printf "fail_frac: %.6f (%d of %d: %d unanswered or wire errors, %d wrong answers, %d in saturation)\n"
    (float_of_int failed /. float_of_int attempted) failed attempted transport_or_wire wrong_responses sat.failed;
  Array.to_list slots
  |> List.filter_map (fun s ->
         match s.resp with
         | Some (Ok { P.body = Error e; _ }) ->
             Some (Printf.sprintf "wire error %s: %s" (P.code_name e.P.code) e.P.message)
         | Some (Error e) -> Some ("transport error: " ^ e)
         | None -> Some "unanswered"
         | Some (Ok _) -> None)
  |> List.filteri (fun i _ -> i < 10)
  |> List.iter (Printf.printf "  %s\n");
  Printf.printf "generator lateness: p50 %.3f ms, p95 %.3f ms, p99 %.3f ms, max %.3f ms\n"
    (pct late 0.5) late_p95 (pct late 0.99) (pct late 1.0);
  (match invalid with
  | [] -> Printf.printf "run: valid\n"
  | l -> List.iter (Printf.printf "run: INVALID (%s)\n") l);
  let correct = wrong = [] && answers.inconsistent = 0 in
  if not traced then
    emit ~correct ~attempted ~failed
      [
        ("setup_s", Stats.median (Array.of_list (List.map (fun l -> l.setup_s) all_setups)), "s");
        ("p50_ms", pct lat 0.5, "ms");
        ("p95_ms", pct lat 0.95, "ms");
        ("sat_qps", sat.qps, "1/s");
        ("rss_mb", rss_mb, "MB");
        ("ok_frac", 1. -. (float_of_int failed /. float_of_int attempted), "ratio");
        ("space_amp", space_amp, "ratio");
        ("visible_p50_ms", Stats.median visible_ms, "ms");
      ]
  else
    Layers.report ~router:w.router ~codec:w.codec ~seed ~name:w.name ~out:!out ~mix ~docs
      ~base_version ~slots:(Array.to_list slots) ~late_p95 ~setup_events:live.events
      ~window_events ~writes ~evictions:(evictions_after -. evictions_before) ~shard_answers
      ~insert_p50_ms:(Stats.median insert_ms)
      ~emit:(emit ~correct ~attempted ~failed)
