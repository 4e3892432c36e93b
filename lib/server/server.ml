module J = Toss_json
module Metrics = Toss_obs.Metrics
module Trace = Toss_obs.Trace
module Span = Toss_obs.Span

type exec =
  deadline:float option ->
  trace_id:string ->
  Protocol.envelope ->
  (J.t, Protocol.error) result * Span.t option

type config = {
  listen : Transport.addr;
  domains : int;
  max_queue : int;
  default_deadline_ms : int option;
  access_log : string option;
  trace_sample : int;
  slow_ms : int option;
}

let default_config ~listen =
  {
    listen;
    domains = 4;
    max_queue = 64;
    default_deadline_ms = None;
    access_log = None;
    trace_sample = 0;
    slow_ms = None;
  }

(* One line per request, written whole under [alock]: pool domains
   finish out of order, and interleaved writes would shear records. *)
type access_log = { aoc : out_channel; alock : Mutex.t }

type state = {
  exec : exec;
  pool : Pool.t;
  config : config;
  access : access_log option;
  sample_tick : int Atomic.t;  (** head-based sampling counter *)
  lock : Mutex.t;  (** guards [stopping], [conns] and [threads] *)
  mutable stopping : bool;
  wake : Unix.file_descr * Unix.file_descr;
      (** a self-pipe in the accept loop's [select] set: {!request_stop}
          writes to it so the loop sees the stop at once *)
  mutable conns : Unix.file_descr list;
  mutable threads : Thread.t list;
}

let g_connections = Metrics.gauge "server.connections"

let note_error code =
  Metrics.incr
    (Metrics.counter
       ~labels:[ ("code", Protocol.code_name code) ]
       "server.errors.total")

let stopped state =
  Mutex.lock state.lock;
  let s = state.stopping in
  Mutex.unlock state.lock;
  s

let request_stop state =
  Mutex.lock state.lock;
  state.stopping <- true;
  Mutex.unlock state.lock;
  (* Non-blocking: a full pipe already wakes the loop. *)
  try ignore (Unix.single_write_substring (snd state.wake) "x" 0 1)
  with Unix.Unix_error (_, _, _) -> ()

(* The fd is registered before its thread is spawned, so the thread's
   [remove_conn] always finds it — whoever removes it closes it. *)
let add_conn state fd =
  Mutex.lock state.lock;
  state.conns <- fd :: state.conns;
  Metrics.set g_connections (float_of_int (List.length state.conns));
  Mutex.unlock state.lock

let add_thread state thread =
  Mutex.lock state.lock;
  state.threads <- thread :: state.threads;
  Mutex.unlock state.lock

(* Connection fds have exactly one closer: normally the connection
   side (the reader thread, or the last queued job — see [conn]), but
   shutdown empties [conns] first and then owns them all (see [run]'s
   cleanup), so [remove_conn]'s result says whether the connection side
   still holds the fd. *)
let remove_conn state fd =
  Mutex.lock state.lock;
  let mine = List.memq fd state.conns in
  if mine then state.conns <- List.filter (fun c -> c != fd) state.conns;
  Metrics.set g_connections (float_of_int (List.length state.conns));
  Mutex.unlock state.lock;
  mine

(* A connection shared between its reader thread and the pool jobs it
   queued. [wlock] serializes response lines (pool workers complete out
   of order, and interleaved [output_string]s would shear lines).
   [inflight] counts queued/running jobs that still hold this record:
   the fd is closed by whoever drops the last reference — the reader
   thread at EOF if nothing is queued, otherwise the final job — so a
   late response can never hit a recycled fd number and leak to a
   freshly accepted client. [fd_closed] makes the close idempotent and
   turns any later [send] into a no-op. *)
type conn = {
  fd : Unix.file_descr;
  oc : out_channel;
  wlock : Mutex.t;
  mutable codec : Protocol.codec;
      (** negotiated by the connection's first byte; set (under [wlock])
          before any request is handled *)
  mutable inflight : int;
  mutable reader_done : bool;  (** reader owns the fd and wants it closed *)
  mutable fd_closed : bool;
}

let conn_of_fd fd =
  {
    fd;
    oc = Unix.out_channel_of_descr fd;
    wlock = Mutex.create ();
    codec = Protocol.Json;
    inflight = 0;
    reader_done = false;
    fd_closed = false;
  }

let set_codec conn codec =
  Mutex.lock conn.wlock;
  conn.codec <- codec;
  Mutex.unlock conn.wlock

let send conn resp =
  Mutex.lock conn.wlock;
  (if not conn.fd_closed then
     try
       Wire.write conn.codec conn.oc (Protocol.response_to_json resp);
       flush conn.oc
     with Sys_error _ -> ());
  Mutex.unlock conn.wlock

let conn_retain conn =
  Mutex.lock conn.wlock;
  conn.inflight <- conn.inflight + 1;
  Mutex.unlock conn.wlock

(* [release_job] / [release_reader] drop one reference; the caller that
   observes [inflight] at zero with the reader gone performs the close
   outside the lock. [release_reader] is only called when the reader
   still owns the fd (see [remove_conn]). *)
let conn_close_if_last conn =
  let close_now = conn.reader_done && conn.inflight = 0 && not conn.fd_closed in
  if close_now then conn.fd_closed <- true;
  close_now

let release_job conn =
  Mutex.lock conn.wlock;
  conn.inflight <- conn.inflight - 1;
  let close_now = conn_close_if_last conn in
  Mutex.unlock conn.wlock;
  if close_now then try Unix.close conn.fd with Unix.Unix_error _ -> ()

let release_reader conn =
  Mutex.lock conn.wlock;
  conn.reader_done <- true;
  let close_now = conn_close_if_last conn in
  Mutex.unlock conn.wlock;
  if close_now then try Unix.close conn.fd with Unix.Unix_error _ -> ()

(* The backend can raise (persistence I/O failures, bugs); an
   unanswered request would wedge a pipelining client forever, so every
   escape becomes a typed [internal] response. *)
let exec_guarded state ~deadline ~trace_id env =
  match state.exec ~deadline ~trace_id env with
  | answer -> answer
  | exception exn ->
      note_error Protocol.Internal;
      ( Error
          (Protocol.error Protocol.Internal
             ("internal error: " ^ Printexc.to_string exn)),
        None )

(* One access-log record. Written {e before} the response is sent, so a
   client that has seen its answer can rely on the record being on disk
   (the smoke test counts on it). [collection] comes from the request,
   [version]/[cache] from the result payload when present, [trace] is
   the span tree of a sampled (or explicitly traced) request. *)
let log_access state ~trace_id ~request ~queue_s ~exec_s ~body ~trace =
  match state.access with
  | None -> ()
  | Some al ->
      let opt name = function Some v -> [ (name, v) ] | None -> [] in
      let collection =
        match request with
        | Protocol.Insert { collection; _ }
        | Protocol.Query { collection; _ }
        | Protocol.Explain { collection; _ } ->
            Some (J.Str collection)
        | Protocol.Join { left; right; _ } -> Some (J.Str (left ^ "," ^ right))
        | _ -> None
      in
      let payload_member name =
        match body with
        | Ok p -> Option.map (fun v -> v) (J.member name p)
        | Error _ -> None
      in
      let status =
        match body with
        | Ok _ -> "ok"
        | Error e -> Protocol.code_name e.Protocol.code
      in
      let record =
        J.Obj
          ([
             ("ts", J.Num (Unix.gettimeofday ()));
             ("trace_id", J.Str trace_id);
             ("op", J.Str (Protocol.op_name request));
           ]
          @ opt "collection" collection
          @ opt "version" (payload_member "version")
          @ opt "cache" (payload_member "cache")
          @ [
              ("queue_s", J.Num queue_s);
              ("exec_s", J.Num exec_s);
              ("domain", J.Num (float_of_int (Domain.self () :> int)));
              ("status", J.Str status);
            ]
          @ opt "trace"
              (Option.map Span.to_json trace))
      in
      Mutex.lock al.alock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock al.alock)
        (fun () ->
          try
            output_string al.aoc (J.to_string record);
            output_char al.aoc '\n';
            flush al.aoc
          with Sys_error _ -> ())

(* Head-based sampling: every [trace_sample]-th pooled request records
   its full span tree into the access log. The tree is built by the
   executor regardless (its phase stats are a view over it), so
   sampling costs serialization only on the sampled request — nothing
   on the rest. *)
let sampled state =
  state.config.trace_sample > 0
  && Atomic.fetch_and_add state.sample_tick 1 mod state.config.trace_sample = 0

(* The slow-query log: one record per executed query whose executor
   root span ran for at least [slow_ms]. A single [output_string] per
   record keeps lines from concurrent pool domains whole (channel
   operations are atomic across domains). Requests that ran no executor
   (cache hits, inserts, deadline aborts) have no tree and log nothing. *)
let log_slow state trace =
  match (state.config.slow_ms, trace) with
  | Some ms, Some root ->
      Option.iter
        (fun line ->
          try
            output_string stderr (line ^ "\n");
            flush stderr
          with Sys_error _ -> ())
        (Span.slow_record ~threshold_s:(float_of_int ms /. 1000.) root)
  | _ -> ()

let handle_request state conn (env : Protocol.envelope) =
  let rid = env.id in
  let trace_id =
    match env.trace_id with Some id -> id | None -> Trace.generate ()
  in
  let respond ?server_ms ?queue_ms body =
    Protocol.response ?id:rid ~trace_id ?server_ms ?queue_ms body
  in
  match env.request with
  | Protocol.Ping | Protocol.Stats | Protocol.Metrics | Protocol.Shutdown ->
      (* Answered inline: observability must survive pool saturation.
         The reader systhread shares its domain's DLS with every other
         connection, so the trace id is NOT installed here — inline ops
         open no spans; their records are stamped directly. A shutdown
         first drains the pool (later submits answer [shutting_down]),
         then reaches the backend, then is answered: a router's
         accepted requests still find their shards up, and the router
         stops its shards before the front end stops. *)
      let stopping = env.request = Protocol.Shutdown in
      if stopping then Pool.stop state.pool;
      let t0 = Unix.gettimeofday () in
      let body, _ = exec_guarded state ~deadline:None ~trace_id env in
      let exec_s = Unix.gettimeofday () -. t0 in
      let body =
        if stopping then Ok (J.Obj [ ("stopping", J.Bool true) ]) else body
      in
      log_access state ~trace_id ~request:env.request ~queue_s:0. ~exec_s
        ~body ~trace:None;
      send conn (respond ~server_ms:(exec_s *. 1000.) ~queue_ms:0. body);
      if stopping then request_stop state
  | Protocol.Insert _ | Protocol.Query _ | Protocol.Join _ | Protocol.Explain _
    -> (
      let deadline_ms =
        match env.deadline_ms with
        | Some _ as v -> v
        | None -> state.config.default_deadline_ms
      in
      let deadline =
        Option.map
          (fun ms -> Unix.gettimeofday () +. (float_of_int ms /. 1000.))
          deadline_ms
      in
      let want_trace = sampled state in
      let job ~queue_wait_s =
        Fun.protect
          ~finally:(fun () -> release_job conn)
          (fun () ->
            let t0 = Unix.gettimeofday () in
            let body, trace =
              match deadline with
              | Some d when t0 > d ->
                  (* Died of old age while queued. *)
                  note_error Protocol.Deadline_exceeded;
                  ( Error
                      (Protocol.error Protocol.Deadline_exceeded
                         "deadline exceeded while queued"),
                    None )
              | _ ->
                  (* The trace id rides the worker domain's DLS for
                     exactly this request: every span frame the backend
                     opens below is stamped with it. *)
                  Trace.with_id trace_id (fun () ->
                      exec_guarded state ~deadline ~trace_id env)
            in
            let exec_s = Unix.gettimeofday () -. t0 in
            log_slow state trace;
            log_access state ~trace_id ~request:env.request
              ~queue_s:queue_wait_s ~exec_s ~body
              ~trace:(if want_trace then trace else None);
            send conn
              (respond ~server_ms:(exec_s *. 1000.)
                 ~queue_ms:(queue_wait_s *. 1000.) body))
      in
      conn_retain conn;
      let refused body =
        release_job conn;
        log_access state ~trace_id ~request:env.request ~queue_s:0. ~exec_s:0.
          ~body ~trace:None;
        send conn (respond body)
      in
      match Pool.submit state.pool job with
      | Pool.Accepted -> ()
      | Pool.Overloaded ->
          note_error Protocol.Overloaded;
          refused (Error (Protocol.error Protocol.Overloaded "queue full"))
      | Pool.Stopped ->
          note_error Protocol.Shutting_down;
          refused
            (Error (Protocol.error Protocol.Shutting_down "server stopping")))

let handle_conn state conn =
  let reader = Wire.reader (Unix.in_channel_of_descr conn.fd) in
  let handle v =
    match Protocol.request_of_json v with
    | Error e ->
        note_error e.Protocol.code;
        send conn (Protocol.response (Error e))
    | Ok env -> handle_request state conn env
  in
  let rec loop () =
    match Wire.read reader with
    | Wire.Eof -> ()
    | Wire.Msg v ->
        set_codec conn (Wire.codec reader);
        handle v;
        loop ()
    | Wire.Corrupt e ->
        (* The framing survived (bad JSON line, undecodable frame
           payload): answer with the typed error and keep reading. *)
        set_codec conn (Wire.codec reader);
        note_error e.Protocol.code;
        send conn (Protocol.response (Error e));
        loop ()
    | Wire.Broken e ->
        (* Framing lost (truncated frame, oversized length): answer if
           possible, then stop reading — the stream cannot resync. *)
        set_codec conn (Wire.codec reader);
        note_error e.Protocol.code;
        send conn (Protocol.response (Error e))
  in
  Fun.protect
    ~finally:(fun () -> if remove_conn state conn.fd then release_reader conn)
    loop

let open_access_log = function
  | None -> Ok None
  | Some path -> (
      try
        let aoc =
          open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path
        in
        Ok (Some { aoc; alock = Mutex.create () })
      with Sys_error msg ->
        Error (Printf.sprintf "cannot open access log: %s" msg))

let run ?(ready = fun (_ : string) -> ()) config exec =
  match open_access_log config.access_log with
  | Error msg -> Error msg
  | Ok access -> (
      match Transport.listen config.listen with
      | Error msg ->
          Option.iter (fun al -> close_out_noerr al.aoc) access;
          Error msg
      | Ok (listen_fd, resolved) ->
          (* A client disconnecting mid-response must not kill the
             process. *)
          (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
           with Invalid_argument _ -> ());
          let wake = Unix.pipe ~cloexec:true () in
          Unix.set_nonblock (snd wake);
          let state =
            {
              exec;
              pool = Pool.create ~domains:config.domains ~max_queue:config.max_queue;
              config;
              access;
              sample_tick = Atomic.make 0;
              lock = Mutex.create ();
              stopping = false;
              wake;
              conns = [];
              threads = [];
            }
          in
          ready resolved;
          let rec accept_loop () =
            if not (stopped state) then begin
              (match Unix.select [ listen_fd; fst wake ] [] [] (-1.) with
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
              | readable, _, _ when not (List.mem listen_fd readable) -> ()
              | _ -> (
                  match Unix.accept listen_fd with
                  | exception Unix.Unix_error (_, _, _) -> ()
                  | fd, _ ->
                      add_conn state fd;
                      let conn = conn_of_fd fd in
                      add_thread state
                        (Thread.create (fun () -> handle_conn state conn) ())));
              accept_loop ()
            end
          in
          accept_loop ();
          Unix.close listen_fd;
          Transport.unlisten config.listen;
          (* Drain accepted work first — pending responses still flow to
             open connections — then take ownership of every remaining
             fd, wake the readers with a shutdown, and join. *)
          Pool.stop state.pool;
          Mutex.lock state.lock;
          let doomed = state.conns in
          state.conns <- [];
          let threads = state.threads in
          state.threads <- [];
          Mutex.unlock state.lock;
          List.iter
            (fun fd ->
              try Unix.shutdown fd Unix.SHUTDOWN_ALL
              with Unix.Unix_error (_, _, _) -> ())
            doomed;
          List.iter Thread.join threads;
          List.iter
            (fun fd -> try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
            (fst wake :: snd wake :: doomed);
          Option.iter (fun al -> close_out_noerr al.aoc) access;
          Ok ())
