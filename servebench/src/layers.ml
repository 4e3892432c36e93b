(* The traced run's per-layer report: wire-reported timings per request,
   the in-process replay of the same requests through each layer's public
   functions, and the span trees built from both. *)

open Slot
module P = Toss_server.Protocol
module Session = Toss_core.Session

let ms x = x *. 1000.
let us x = x *. 1e6
let med l = Stats.median (Array.of_list l)
let pct l q = Stats.percentile (Stats.sorted (Array.of_list l)) q
let take n l = List.filteri (fun i _ -> i < n) l
let server_ms r = Option.value r.P.server_ms ~default:0.
let queue_ms r = Option.value r.P.queue_ms ~default:0.

(* The (server_ms, queue_ms) on the request's blocking path: the server's
   own, or behind the router the slowest shard's. *)
let critical r =
  match shard_times r with
  | [] -> (server_ms r, queue_ms r)
  | l -> List.fold_left (fun (bs, bq) (s, q) -> if s +. q > bs +. bq then (s, q) else (bs, bq)) (0., 0.) l

let skew r =
  match List.map (fun (s, q) -> s +. q) (shard_times r) with
  | [] -> 0.
  | l ->
      let mean = Stats.mean (Array.of_list l) in
      if mean > 0. then List.fold_left Float.max 0. l /. mean else 1.

type node = N of string * float * node list

(* Lays [children] end to end from [start] under [parent], returning the
   spans. *)
let rec lay ~next ~tid ~parent start children =
  let _, spans =
    List.fold_left
      (fun (t, acc) (N (name, d, kids)) ->
        let id = next () in
        let s = { Spans.id; parent = Some parent; name; start = t; stop = t +. d; trace_id = tid } in
        (t +. d, acc @ (s :: lay ~next ~tid ~parent:id t kids)))
      (start, []) children
  in
  spans

let report ~router ~codec ~seed ~name ~out ~mix ~docs ~base_version ~slots ~late_p95
    ~setup_events ~window_events ~writes ~evictions ~shard_answers ~insert_p50_ms ~emit =
  let reads =
    List.filter_map
      (fun s ->
        match (s.kind, s.resp) with
        | Read tql, Some (Ok r) when result r <> None -> Some (s, tql, r)
        | _ -> None)
      slots
  in
  let n_reads = List.length reads in
  let rtt s = ms (s.recv -. s.sent) in
  (* ---- in-process replay ---- *)
  let s = Replay.mirror () in
  if not (Sys.file_exists out) then Unix.mkdir out 0o755;
  let dir = Filename.concat out (Printf.sprintf "replay-%s-%d-%d" name seed (Unix.getpid ())) in
  let base_docs = Array.to_list (Array.sub docs 0 base_version) in
  let ingest = Replay.store_layers s ~dir ~pin_each:false base_docs in
  let (), first_build = Replay.time (fun () -> ignore (Session.pin s ~collection:Replay.collection)) in
  let pinned = Replay.pin_exn s in
  let layers = Hashtbl.create 64 in
  List.iter
    (fun (_, tql, _) ->
      if (not (Hashtbl.mem layers tql)) && Hashtbl.length layers < 500 then
        Option.iter (Hashtbl.add layers tql) (Replay.query_layers pinned tql))
    reads;
  let ql = Hashtbl.fold (fun _ v acc -> v :: acc) layers [] in
  let warm_pins = List.init 50 (fun _ -> Replay.per_call (fun () -> Replay.pin_exn s)) in
  let terms = Replay.seo_terms pinned in
  let later =
    if writes then Array.to_list (Array.sub docs base_version (Array.length docs - base_version))
    else List.init 3 mix.Mix.insert_doc
  in
  let writes_replay = Replay.store_layers s ~dir ~pin_each:true later in
  Procs.remove_tree dir;
  let builds = if writes then writes_replay.Replay.build_s else first_build :: writes_replay.Replay.build_s in
  let store_ins = ingest.Replay.insert_s @ writes_replay.Replay.insert_s in
  let store_app = ingest.Replay.append_s @ writes_replay.Replay.append_s in
  (* ---- wire codec, on the run's own messages ---- *)
  (* responses the receiver kept whole (it drops the trees of most) *)
  let sample = take 500 (List.filter (fun (_, _, r) -> trees r <> None) reads) in
  let decode_s =
    List.map (fun (sl, tql, _) -> Replay.req_decode_s codec (env ?trace_id:sl.trace_id 0 (read_req tql))) sample
  in
  let encode_s = List.map (fun (_, _, r) -> Replay.resp_encode_s codec r) sample in
  let resp_bytes =
    List.map (fun (_, _, r) -> float_of_int (String.length (Replay.encode_response codec r))) sample
  in
  let merge = Hashtbl.create 16 in
  List.iter2 (fun tql answers -> Hashtbl.replace merge tql (Replay.merge_s answers))
    (if router then Array.to_list mix.Mix.queries else [])
    shard_answers;
  (* ---- span trees of the traced reads ---- *)
  let counter = ref 0 in
  let next () =
    incr counter;
    !counter
  in
  let pin_s = med warm_pins in
  let trees =
    List.filter_map
      (fun (sl, tql, r) ->
        match sl.trace_id with
        | None -> None
        | Some tid ->
            let root = { Spans.id = next (); parent = None; name = "request"; start = sl.due;
                         stop = sl.recv; trace_id = tid } in
            let call = { Spans.id = next (); parent = Some root.Spans.id; name = "transport";
                         start = sl.sent; stop = sl.recv; trace_id = tid } in
            let late = { Spans.id = next (); parent = Some root.Spans.id; name = "gen.late";
                         start = sl.due; stop = sl.sent; trace_id = tid } in
            let dec = Replay.req_decode_s codec (env ~trace_id:tid 0 (read_req tql)) in
            let enc = Replay.resp_encode_s codec r in
            let engine =
              let q = Hashtbl.find_opt layers tql in
              N
                ( "engine.exec",
                  fst (critical r) /. 1000.,
                  N ("pin", pin_s, [])
                  ::
                  (match q with
                  | Some q when not (cache_hit r) ->
                      [ N ("tql.parse", q.Replay.parse_s, []); N ("plan", q.Replay.plan_s, []);
                        N ("match", q.Replay.match_s, []) ]
                  | _ -> []) )
            in
            let server =
              if router then
                let sq = critical r in
                [ N ( "router", server_ms r /. 1000.,
                      [ N ("router.shard_wait", (fst sq +. snd sq) /. 1000.,
                           [ N ("pool.queue", snd sq /. 1000., []); engine ]);
                        N ("router.merge", Option.value (Hashtbl.find_opt merge tql) ~default:0., []) ] ) ]
              else [ N ("pool.queue", queue_ms r /. 1000., []); engine ]
            in
            let inner = List.fold_left (fun a (N (_, d, _)) -> a +. d) 0. server in
            let gap = Float.max 0. ((sl.recv -. sl.sent -. inner -. dec -. enc) /. 2.) in
            let kids =
              (N ("wire.decode", dec, []) :: N ("net.out", gap, []) :: server) @ [ N ("wire.encode", enc, []) ]
            in
            let laid =
              List.filter (fun sp -> sp.Spans.name <> "net.out")
                (lay ~next ~tid ~parent:call.Spans.id sl.sent kids)
            in
            Some (call, root :: late :: call :: laid))
      reads
  in
  let all_spans = List.concat_map snd trees in
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun (_, spans) ->
      List.iter
        (fun sp ->
          let prev = Option.value (Hashtbl.find_opt by_name sp.Spans.name) ~default:[] in
          Hashtbl.replace by_name sp.Spans.name (ms (Spans.self_time spans sp) :: prev))
        spans)
    trees;
  let coverage =
    let num, den =
      List.fold_left
        (fun (n, d) (call, spans) ->
          (n +. (Spans.coverage spans call *. Spans.duration call), d +. Spans.duration call))
        (0., 0.) trees
    in
    if den > 0. then num /. den else 0.
  in
  let file = Filename.concat out (Printf.sprintf "trace-%s-%d.jsonl" name seed) in
  let oc = open_out file in
  List.iter (fun sp -> output_string oc (Toss_json.to_string (Spans.to_json sp) ^ "\n")) all_spans;
  close_out oc;
  let lat traced =
    List.filter_map
      (fun (sl, _, _) -> if (sl.trace_id <> None) = traced then Some (ms (sl.recv -. sl.due)) else None)
      reads
  in
  Printf.printf "spans: %d traced requests, %d spans written to %s\n" (List.length trees)
    (List.length all_spans) file;
  Printf.printf "self time per layer over traced requests (ms):\n";
  Printf.printf "  %-20s %10s %10s\n" "layer" "p50" "p95";
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name []
  |> List.sort compare
  |> List.iter (fun (k, v) -> Printf.printf "  %-20s %10.4f %10.4f\n" k (med v) (pct v 0.95));
  let sum f = List.fold_left (fun a q -> a + f q) 0 ql in
  let shard_wait = List.map (fun (_, _, r) -> let s, q = critical r in s +. q) reads in
  let bpi =
    if writes then Measure.builds_per_insert ~base:base_version window_events
    else Measure.builds_per_insert ~base:0 setup_events
  in
  emit
    ([
      ("gen.late_p95_ms", late_p95, "ms");
      ("wire.req_decode_us", us (med decode_s), "us");
      ("wire.resp_encode_us", us (med encode_s), "us");
      ("wire.resp_bytes", med resp_bytes, "bytes");
      ("transport.p50_ms", med (List.map (fun (sl, _, r) -> rtt sl -. server_ms r -. queue_ms r) reads), "ms");
      ("pool.queue_p50_ms", med (List.map (fun (_, _, r) -> snd (critical r)) reads), "ms");
      ("pool.queue_p95_ms", pct (List.map (fun (_, _, r) -> snd (critical r)) reads) 0.95, "ms");
      ("engine.exec_p50_ms", med (List.map (fun (_, _, r) -> fst (critical r)) reads), "ms");
      ("engine.exec_p95_ms", pct (List.map (fun (_, _, r) -> fst (critical r)) reads) 0.95, "ms");
      ( "cache.hit_ratio",
        float_of_int (List.length (List.filter (fun (_, _, r) -> cache_hit r) reads))
        /. float_of_int (max 1 n_reads),
        "ratio" );
      ("cache.evictions_per_kq", evictions *. 1000. /. float_of_int (max 1 n_reads), "count");
      ("pin.warm_us", us pin_s, "us");
      ("seo.build_ms", ms (med builds), "ms");
      ("seo.builds_per_insert", bpi, "ratio");
      ("seo.terms", float_of_int terms, "count");
      ("tql.parse_us", us (med (List.map (fun q -> q.Replay.parse_s) ql)), "us");
      ("plan.p50_us", us (med (List.map (fun q -> q.Replay.plan_s) ql)), "us");
      ("match.p50_ms", ms (med (List.map (fun q -> q.Replay.match_s) ql)), "ms");
      ("match.p95_ms", ms (pct (List.map (fun q -> q.Replay.match_s) ql) 0.95), "ms");
      ( "match.embeddings_per_result",
        float_of_int (sum (fun q -> q.Replay.embeddings)) /. float_of_int (max 1 (sum (fun q -> q.Replay.results))),
        "ratio" );
      ("insert_p50_ms", insert_p50_ms, "ms");
      ("store.insert_us", us (med store_ins), "us");
      ("store.append_us", us (med store_app), "us");
      ("trace.overhead_ratio", med (lat true) /. med (lat false), "ratio");
      ("trace.coverage", coverage, "ratio");
    ]
    @
    if router then
      [
        ("router.shard_wait_p50_ms", med shard_wait, "ms");
        ( "router.overhead_p50_ms",
          med (List.map2 (fun (_, _, r) w -> server_ms r -. w) reads shard_wait),
          "ms" );
        ("router.merge_us", us (med (Hashtbl.fold (fun _ v a -> v :: a) merge [])), "us");
        ("router.shard_skew", med (List.map (fun (_, _, r) -> skew r) reads), "ratio");
      ]
    else [])
