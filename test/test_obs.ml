(* Tests for the observability layer: metrics-registry semantics, span
   nesting, and a golden test asserting that the executor's hot paths
   emit the expected metric series. *)

module Metrics = Toss_obs.Metrics
module Span = Toss_obs.Span
module Trace = Toss_obs.Trace
module Names = Toss_obs.Names
module Json = Toss_json
module Tree = Toss_xml.Tree
module Doc = Tree.Doc
module Pattern = Toss_tax.Pattern
module Condition = Toss_tax.Condition
module Collection = Toss_store.Collection
module Seo = Toss_core.Seo
module Executor = Toss_core.Executor
module Workload = Toss_data.Workload

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)
let checkf = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Counters                                                             *)
(* ------------------------------------------------------------------ *)

let test_counter_basics () =
  Metrics.reset ();
  let c = Metrics.counter "test.counter" in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  checki "accumulates" 5
    (Option.get (Metrics.find_counter (Metrics.snapshot ()) "test.counter"));
  Alcotest.check_raises "counters only go up"
    (Invalid_argument "Metrics.incr: counters only go up") (fun () ->
      Metrics.incr ~by:(-1) c)

let test_counter_identity () =
  Metrics.reset ();
  let a = Metrics.counter "test.same" in
  let b = Metrics.counter "test.same" in
  Metrics.incr a;
  Metrics.incr b;
  checki "same (name, labels) is one series" 2
    (Option.get (Metrics.find_counter (Metrics.snapshot ()) "test.same"))

let test_counter_labels () =
  Metrics.reset ();
  let x = Metrics.counter ~labels:[ ("k", "x") ] "test.labelled" in
  let y = Metrics.counter ~labels:[ ("k", "y") ] "test.labelled" in
  Metrics.incr x;
  Metrics.incr ~by:2 y;
  let snap = Metrics.snapshot () in
  checki "series x" 1
    (Option.get (Metrics.find_counter snap ~labels:[ ("k", "x") ] "test.labelled"));
  checki "series y" 2
    (Option.get (Metrics.find_counter snap ~labels:[ ("k", "y") ] "test.labelled"));
  checkb "unlabelled series distinct" true
    (Metrics.find_counter snap "test.labelled" = None)

let test_kind_conflict () =
  ignore (Metrics.counter "test.kind");
  checkb "re-registering a counter name as a gauge raises" true
    (match Metrics.gauge "test.kind" with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_reset_keeps_handles () =
  let c = Metrics.counter "test.reset" in
  Metrics.incr ~by:7 c;
  Metrics.reset ();
  checki "zeroed" 0
    (Option.get (Metrics.find_counter (Metrics.snapshot ()) "test.reset"));
  Metrics.incr c;
  checki "handle still live" 1
    (Option.get (Metrics.find_counter (Metrics.snapshot ()) "test.reset"))

(* [reset] zeroes the registered cells in place, so handles obtained
   before a reset keep feeding the same series afterwards — for every
   instrument kind, not only counters. *)
let test_reset_keeps_gauge_handles () =
  Metrics.reset ();
  let g = Metrics.gauge "test.reset.gauge" in
  Metrics.set g 42.;
  Metrics.reset ();
  checkf "zeroed" 0.
    (Option.get (Metrics.find_gauge (Metrics.snapshot ()) "test.reset.gauge"));
  Metrics.set g 7.;
  checkf "stale handle still registers" 7.
    (Option.get (Metrics.find_gauge (Metrics.snapshot ()) "test.reset.gauge"))

let test_reset_keeps_histogram_handles () =
  Metrics.reset ();
  let h = Metrics.histogram "test.reset.histo" in
  Metrics.observe h 3.0;
  Metrics.reset ();
  let empty =
    Option.get (Metrics.find_histogram (Metrics.snapshot ()) "test.reset.histo")
  in
  checki "emptied" 0 empty.Metrics.count;
  Metrics.observe h 5.0;
  let refilled =
    Option.get (Metrics.find_histogram (Metrics.snapshot ()) "test.reset.histo")
  in
  checki "stale handle still observes" 1 refilled.Metrics.count;
  checkf "new observation only" 5.0 refilled.Metrics.sum

(* ------------------------------------------------------------------ *)
(* Histograms                                                           *)
(* ------------------------------------------------------------------ *)

let histo_stats name =
  let snap = Metrics.snapshot () in
  match
    List.find_map
      (function
        | n, _, Metrics.Histogram h when n = name -> Some h | _ -> None)
      snap
  with
  | Some h -> h
  | None -> Alcotest.failf "histogram %s not in snapshot" name

let test_histogram_summary () =
  Metrics.reset ();
  let h = Metrics.histogram "test.histo" in
  List.iter (Metrics.observe h) [ 0.5; 1.5; 100. ];
  let s = histo_stats "test.histo" in
  checki "count" 3 s.Metrics.count;
  checkf "sum" 102. s.Metrics.sum;
  checkf "min" 0.5 s.Metrics.min;
  checkf "max" 100. s.Metrics.max

let test_histogram_buckets () =
  Metrics.reset ();
  let h = Metrics.histogram "test.buckets" in
  List.iter (Metrics.observe_int h) [ 1; 5; 50; 5000 ];
  let s = histo_stats "test.buckets" in
  let cum bound =
    match List.assoc_opt bound s.Metrics.buckets with
    | Some c -> c
    | None -> Alcotest.failf "no bucket with bound %g" bound
  in
  (* Buckets are cumulative: le(1) sees only the 1, le(10) adds the 5,
     le(100) the 50, and +inf everything. *)
  checki "le 1" 1 (cum 1.);
  checki "le 10" 2 (cum 10.);
  checki "le 100" 3 (cum 100.);
  checki "le +inf = count" 4 (cum infinity)

(* Four domains hammering the same counter, gauge and histogram —
   through handles re-registered per domain, so the registry lock is
   exercised too. Exact totals: a single lost update fails the test
   (and did, when counters were plain mutable ints). *)
let test_multidomain_hammer () =
  Metrics.reset ();
  let n_domains = 4 and per_domain = 25_000 in
  let work () =
    let c = Metrics.counter "hammer.count" in
    let g = Metrics.gauge "hammer.gauge" in
    let h = Metrics.histogram "hammer.histo" in
    for i = 1 to per_domain do
      Metrics.incr c;
      Metrics.set g 1.;
      Metrics.observe_int h (i mod 7)
    done
  in
  let domains = List.init n_domains (fun _ -> Domain.spawn work) in
  (* Snapshots taken mid-storm must not crash or tear a histogram. *)
  for _ = 1 to 50 do
    ignore (Metrics.snapshot ())
  done;
  List.iter Domain.join domains;
  let snap = Metrics.snapshot () in
  checki "no counter increment lost" (n_domains * per_domain)
    (Option.get (Metrics.find_counter snap "hammer.count"));
  let s = histo_stats "hammer.histo" in
  checki "no observation lost" (n_domains * per_domain) s.Metrics.count;
  checkf "histogram max" 6. s.Metrics.max

let test_histogram_empty () =
  Metrics.reset ();
  ignore (Metrics.histogram "test.empty");
  let s = histo_stats "test.empty" in
  checki "count 0" 0 s.Metrics.count;
  checkb "min is nan" true (Float.is_nan s.Metrics.min)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_json_export () =
  Metrics.reset ();
  Metrics.incr ~by:3 (Metrics.counter "test.json.counter");
  Metrics.set (Metrics.gauge "test.json.gauge") 2.5;
  Metrics.observe (Metrics.histogram "test.json.histo") 1.0;
  let json = Metrics.to_json (Metrics.snapshot ()) in
  checkb "counter serialized" true
    (contains ~needle:"\"test.json.counter\":3" json);
  checkb "gauge serialized" true (contains ~needle:"\"test.json.gauge\":2.5" json);
  checkb "histogram count serialized" true (contains ~needle:"\"count\":1" json)

(* ------------------------------------------------------------------ *)
(* Spans                                                                *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  Span.set_enabled false;
  let v, root =
    Span.run "outer" (fun () ->
        let a = Span.with_ "first" (fun () -> 1) in
        let b = Span.with_ "second" (fun () -> Span.with_ "inner" (fun () -> 10)) in
        a + b)
  in
  checki "value passed through" 11 v;
  checks "root name" "outer" root.Span.name;
  Alcotest.(check (list string))
    "children in execution order" [ "first"; "second" ]
    (List.map (fun c -> c.Span.name) root.Span.children);
  let second = List.nth root.Span.children 1 in
  Alcotest.(check (list string))
    "grandchild" [ "inner" ]
    (List.map (fun c -> c.Span.name) second.Span.children);
  checkb "find reaches grandchild" true (Span.find root "inner" <> None);
  checkb "parent covers children" true
    (root.Span.elapsed_s
    >= List.fold_left (fun acc c -> acc +. c.Span.elapsed_s) 0. root.Span.children);
  checkb "self time non-negative" true (Span.self_s root >= 0.)

let test_span_exception_safety () =
  let fired = ref false in
  (try
     ignore
       (Span.with_ "failing" (fun () ->
            fired := true;
            failwith "boom"))
   with Failure _ -> ());
  checkb "body ran" true !fired;
  (* The stack must be balanced again: a fresh root works normally. *)
  let _, root = Span.run "after" (fun () -> ()) in
  checkb "no stale children leak in" true (root.Span.children = [])

(* ------------------------------------------------------------------ *)
(* Quantile estimates                                                   *)
(* ------------------------------------------------------------------ *)

let test_quantile_point_mass () =
  Metrics.reset ();
  let h = Metrics.histogram "test.q.point" in
  List.iter (fun _ -> Metrics.observe h 0.25) [ 1; 2; 3; 4; 5 ];
  let s = histo_stats "test.q.point" in
  (* All observations equal: every quantile collapses to that value. *)
  List.iter
    (fun q -> checkf (Printf.sprintf "q=%g exact" q) 0.25 (Metrics.quantile s q))
    [ 0.; 0.5; 0.95; 0.99; 1. ]

let test_quantile_monotone_and_bounded () =
  Metrics.reset ();
  let h = Metrics.histogram "test.q.spread" in
  List.iter (Metrics.observe h) [ 0.002; 0.004; 0.03; 0.07; 0.5; 2.0 ];
  let s = histo_stats "test.q.spread" in
  let p50 = Metrics.quantile s 0.5 in
  let p95 = Metrics.quantile s 0.95 in
  let p99 = Metrics.quantile s 0.99 in
  checkb "p50 <= p95" true (p50 <= p95);
  checkb "p95 <= p99" true (p95 <= p99);
  checkb "within observed range" true (p50 >= s.Metrics.min && p99 <= s.Metrics.max);
  checkb "empty histogram is nan" true
    (Float.is_nan
       (Metrics.quantile
          { Metrics.count = 0; sum = 0.; min = nan; max = nan; buckets = [] }
          0.5))

let test_quantile_single_observation () =
  Metrics.reset ();
  let h = Metrics.histogram "test.q.single" in
  Metrics.observe h 3.0;
  let s = histo_stats "test.q.single" in
  (* One observation: min = max = 3, so interpolation has no room and
     every quantile is the observation itself. *)
  List.iter
    (fun q -> checkf (Printf.sprintf "q=%g is the observation" q) 3.0 (Metrics.quantile s q))
    [ 0.; 0.25; 0.5; 1. ]

let test_quantile_decade_boundary () =
  Metrics.reset ();
  let h = Metrics.histogram "test.q.decade" in
  (* Observations sitting exactly on the decade bounds the registry
     buckets by: each must land in its own le-bucket, and quantiles must
     stay inside [min, max] rather than drifting to a bucket edge below
     the minimum (the clamp regression this guards). *)
  List.iter (Metrics.observe h) [ 10.0; 100.0 ];
  let s = histo_stats "test.q.decade" in
  let cum bound =
    match List.assoc_opt bound s.Metrics.buckets with
    | Some c -> c
    | None -> Alcotest.failf "no bucket with bound %g" bound
  in
  checki "10 counted at le=10" 1 (cum 10.);
  checki "100 counted at le=100" 2 (cum 100.);
  let p50 = Metrics.quantile s 0.5 in
  let p99 = Metrics.quantile s 0.99 in
  checkb "p50 within range" true (p50 >= 10.0 && p50 <= 100.0);
  checkb "p99 within range" true (p99 >= 10.0 && p99 <= 100.0);
  checkb "quantiles monotone" true (p50 <= p99)

let test_quantile_clamps_q () =
  Metrics.reset ();
  let h = Metrics.histogram "test.q.clamp" in
  List.iter (Metrics.observe h) [ 1.0; 2.0; 4.0 ];
  let s = histo_stats "test.q.clamp" in
  (* Out-of-range ranks clamp to the ends instead of extrapolating. *)
  checkf "q below 0 = q 0" (Metrics.quantile s 0.) (Metrics.quantile s (-0.5));
  checkf "q above 1 = q 1" (Metrics.quantile s 1.) (Metrics.quantile s 1.5);
  checkb "q=0 at or above min" true (Metrics.quantile s 0. >= s.Metrics.min);
  checkf "q=1 is the max" s.Metrics.max (Metrics.quantile s 1.)

let test_quantiles_in_exports () =
  Metrics.reset ();
  let h = Metrics.histogram "test.q.export" in
  Metrics.observe h 1.0;
  let snap = Metrics.snapshot () in
  checkb "table shows percentiles" true
    (contains ~needle:"p95=" (Metrics.to_table snap));
  checkb "json shows percentiles" true
    (contains ~needle:"\"p95\":" (Metrics.to_json snap))

(* ------------------------------------------------------------------ *)
(* Query records: the executor's span tree and the slow-query log       *)
(* ------------------------------------------------------------------ *)

(* A tiny two-paper fixture; one pattern whose TOSS run exercises the
   whole rewrite -> execute -> assemble pipeline. Shared with the golden
   metrics tests below. *)
let db =
  Toss_xml.Parser.parse_exn
    {|<dblp>
        <inproceedings key="u1">
          <author>Jeffrey D. Ullman</author>
          <title>Principles of Database Systems</title>
          <booktitle>PODS</booktitle><year>1998</year>
        </inproceedings>
        <inproceedings key="w1">
          <author>Jennifer Widom</author>
          <title>Active Database Systems</title>
          <booktitle>SIGMOD Conference</booktitle><year>1999</year>
        </inproceedings>
      </dblp>|}

let ullman_pattern =
  Pattern.v
    (Pattern.node 1 [ Pattern.pc (Pattern.leaf 2) ])
    (Condition.conj
       [
         Condition.tag_eq 1 "inproceedings";
         Condition.tag_eq 2 "author";
         Condition.content_sim 2 "Jeffrey D. Ullman";
       ])

let run_query ?(compile = true) () =
  let seo =
    match
      Seo.of_documents ~metric:Workload.experiment_metric ~eps:2.0
        [ Doc.of_tree db ]
    with
    | Ok seo -> seo
    | Error msg -> failwith msg
  in
  let coll = Collection.create "obs" in
  ignore (Collection.add_document coll db);
  let coll = Collection.snapshot coll in
  Executor.select ~compile seo coll ~pattern:ullman_pattern ~sl:[ 1 ]

let rec spans_named name (sp : Span.t) =
  (if sp.Span.name = name then [ sp ] else [])
  @ List.concat_map (spans_named name) sp.Span.children

let meta_int key (sp : Span.t) = int_of_string (List.assoc key sp.Span.meta)

let sum_meta key spans =
  List.fold_left (fun acc sp -> acc + meta_int key sp) 0 spans

let json_str key json = Option.bind (Json.member key json) Json.to_str

(* The slow-query record is built from the executor's root span: nothing
   under the threshold; at threshold 0 one parseable JSON line carrying
   the whole tree, keyed by the trace id when the run had one. *)
let test_slow_query_threshold () =
  let _, stats = run_query () in
  checkb "fast query not logged" true
    (Span.slow_record ~threshold_s:3600. stats.Executor.trace = None);
  let record trace =
    match Span.slow_record ~threshold_s:0. trace with
    | None -> Alcotest.fail "threshold 0 must log every query"
    | Some line -> (
        checkb "a single line" false (String.contains line '\n');
        match Json.parse line with
        | Error msg -> Alcotest.failf "slow record is not valid JSON: %s" msg
        | Ok json -> json)
  in
  let json = record stats.Executor.trace in
  checkb "record type" true (json_str "type" json = Some "slow_query");
  checkb "rooted at the executor" true
    (Option.bind (Json.member "trace" json) (json_str "name")
    = Some Names.select_root);
  checkb "untraced run has no trace_id" true (Json.member "trace_id" json = None);
  let _, traced = Trace.with_id "slow-1" (fun () -> run_query ()) in
  checkb "traced run keyed by its id" true
    (json_str "trace_id" (record traced.Executor.trace) = Some "slow-1")

(* The slow-query record must be replayable: parse it back and rebuild
   the span tree it carries. The replayed tree has the live tree's
   shape, names and annotations, so the record alone is enough to read
   off the run's facts. *)
type replayed = R of string * (string * string) list * replayed list

let rec replay json =
  let name = Option.get (json_str "name" json) in
  let meta =
    match Json.member "meta" json with
    | Some (Json.Obj kvs) ->
        List.map (fun (k, v) -> (k, Option.get (Json.to_str v))) kvs
    | _ -> []
  in
  let children =
    List.map replay
      (Option.get (Option.bind (Json.member "children" json) Json.to_list))
  in
  R (name, meta, children)

let rec shape (sp : Span.t) =
  R (sp.Span.name, sp.Span.meta, List.map shape sp.Span.children)

let test_slow_query_record_replays () =
  let _, stats = run_query ~compile:false () in
  let trace = stats.Executor.trace in
  match Span.slow_record ~threshold_s:0. trace with
  | None -> Alcotest.fail "threshold 0 must log every query"
  | Some line -> (
      match Json.parse line with
      | Error msg -> Alcotest.failf "slow record is not valid JSON: %s" msg
      | Ok json ->
          checks "record type" "slow_query"
            (Option.get (json_str "type" json));
          (* the record prints elapsed_s to the microsecond *)
          Alcotest.(check (float 1e-6))
            "elapsed is the root's" trace.Span.elapsed_s
            (Option.get (Option.bind (Json.member "elapsed_s" json) Json.to_num));
          let (R (name, meta, _) as replayed) =
            replay (Option.get (Json.member "trace" json))
          in
          checks "replay starts at the executor" Names.select_root name;
          checkb "replay mirrors the span tree" true (replayed = shape trace);
          checki "replayed results" stats.Executor.n_results
            (int_of_string (List.assoc "results" meta));
          let rec xpath_rows (R (name, meta, children)) =
            (if name = Names.xpath then int_of_string (List.assoc "rows" meta)
             else 0)
            + List.fold_left (fun acc c -> acc + xpath_rows c) 0 children
          in
          checki "replayed xpath rows sum to candidates"
            stats.Executor.n_candidates (xpath_rows replayed))

(* Span names and meta reach JSON through the JSON quoter. Meta can
   hold client strings (a collection name), so UTF-8, quotes, a
   backslash and control bytes must all survive the round trip. *)
let test_span_json_escaping () =
  let awkward = "b\xc3\xbccher \"x\" \\y\n\t\x01" in
  let (), sp =
    Span.run ~meta:[ ("collection", awkward) ] "r\xc3\xa9sum\xc3\xa9" (fun () ->
        Span.with_ ~meta:[ (awkward, "v") ] "child" ignore)
  in
  (match Json.parse (Span.to_json sp) with
  | Error msg -> Alcotest.failf "span JSON does not parse: %s" msg
  | Ok json -> checkb "tree round-trips" true (replay json = shape sp));
  match Option.map Json.parse (Span.slow_record ~threshold_s:0. sp) with
  | Some (Ok json) ->
      checkb "slow record carries the tree" true
        (Option.map replay (Json.member "trace" json) = Some (shape sp))
  | Some (Error msg) -> Alcotest.failf "slow record does not parse: %s" msg
  | None -> Alcotest.fail "threshold 0 must log every root"

(* The interpreted pipeline's facts, read off the tree: one [xpath] span
   per label query whose [rows] sum to the candidate count, and a root
   recording the mode, the collection and the result count. *)
let test_interpreted_tree_facts () =
  let _, stats = run_query ~compile:false () in
  let trace = stats.Executor.trace in
  let xpaths = spans_named Names.xpath trace in
  checki "one xpath span per label query" 2 (List.length xpaths);
  checki "xpath rows sum to candidates" stats.Executor.n_candidates
    (sum_meta "rows" xpaths);
  checki "root results" stats.Executor.n_results (meta_int "results" trace);
  checks "root mode" "toss" (List.assoc "mode" trace.Span.meta);
  checks "root collection" "obs" (List.assoc "collection" trace.Span.meta)

(* The compiled matcher (the default) issues no store queries: its
   facts are on the per-document [match] spans, whose [nodes] sum to the
   candidate count and [matches] to the embedding count. *)
let test_compiled_tree_facts () =
  let _, stats = run_query () in
  let trace = stats.Executor.trace in
  checkb "no store scans" true (spans_named Names.xpath trace = []);
  let matches = spans_named Names.matcher trace in
  checkb "a match span per document" true (matches <> []);
  checki "match nodes sum to candidates" stats.Executor.n_candidates
    (sum_meta "nodes" matches);
  checki "match matches sum to embeddings" stats.Executor.n_embeddings
    (sum_meta "matches" matches);
  checki "root results" stats.Executor.n_results (meta_int "results" trace)

(* ------------------------------------------------------------------ *)
(* Trace context                                                        *)
(* ------------------------------------------------------------------ *)

let test_trace_scoping () =
  checkb "empty outside with_id" true (Trace.get () = None);
  let inner =
    Trace.with_id "outer" (fun () ->
        let nested = Trace.with_id "inner" (fun () -> Trace.get ()) in
        checkb "innermost wins" true (nested = Some "inner");
        Trace.get ())
  in
  checkb "outer restored after nesting" true (inner = Some "outer");
  (try Trace.with_id "doomed" (fun () -> failwith "boom") with Failure _ -> ());
  checkb "restored on exception" true (Trace.get () = None)

let test_trace_generate () =
  let ids = List.init 100 (fun _ -> Trace.generate ()) in
  checki "all distinct" 100 (List.length (List.sort_uniq compare ids));
  List.iter
    (fun id ->
      checki "16 hex digits" 16 (String.length id);
      checkb "valid on the wire" true (Trace.is_valid id);
      checkb "hex charset" true
        (String.for_all
           (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
           id))
    ids

let test_trace_validation () =
  checkb "empty rejected" true (not (Trace.is_valid ""));
  checkb "single char ok" true (Trace.is_valid "a");
  checkb "128 chars ok" true (Trace.is_valid (String.make 128 'x'));
  checkb "129 chars rejected" true (not (Trace.is_valid (String.make 129 'x')));
  checkb "space rejected" true (not (Trace.is_valid "a b"));
  checkb "newline rejected" true (not (Trace.is_valid "a\nb"));
  checkb "non-ascii rejected" true (not (Trace.is_valid "caf\xc3\xa9"));
  checkb "punctuation ok" true (Trace.is_valid "req/42:retry-1_x.y~")

let test_trace_stamps_spans () =
  let _, root =
    Trace.with_id "stamp-2" (fun () ->
        Span.run "traced" (fun () -> ignore (Span.with_ "child" (fun () -> ()))))
  in
  checkb "root span stamped" true
    (List.assoc_opt "trace_id" root.Span.meta = Some "stamp-2");
  (match root.Span.children with
  | [ child ] ->
      checkb "child span stamped" true
        (List.assoc_opt "trace_id" child.Span.meta = Some "stamp-2")
  | _ -> Alcotest.fail "expected one child span");
  let _, untraced = Span.run "untraced" (fun () -> ()) in
  checkb "no stamp without a trace" true
    (List.assoc_opt "trace_id" untraced.Span.meta = None)

(* ------------------------------------------------------------------ *)
(* Prometheus exposition                                                *)
(* ------------------------------------------------------------------ *)

(* A hand-written parser for the text format, strict about what the
   to_prometheus contract promises: legal metric names, one # TYPE per
   name, and re-parseable sample values. *)
type prom_sample = { p_name : string; p_labels : (string * string) list; p_value : float }

let parse_prom_value s =
  match s with
  | "+Inf" -> infinity
  | "-Inf" -> neg_infinity
  | "NaN" -> nan
  | s -> (
      match float_of_string_opt s with
      | Some f -> f
      | None -> Alcotest.failf "unparseable sample value %S" s)

let legal_name s =
  s <> ""
  && (not (s.[0] >= '0' && s.[0] <= '9'))
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '_' || c = ':')
       s

let parse_prom_labels s =
  (* Comma-separated key=quoted-value pairs; the values these tests
     generate contain no escapes or commas, so a comma split suffices. *)
  if s = "" then []
  else
    String.split_on_char ',' s
    |> List.map (fun kv ->
           match String.index_opt kv '=' with
           | None -> Alcotest.failf "label without '=': %S" kv
           | Some i ->
               let k = String.sub kv 0 i in
               let v = String.sub kv (i + 1) (String.length kv - i - 1) in
               let n = String.length v in
               if n < 2 || v.[0] <> '"' || v.[n - 1] <> '"' then
                 Alcotest.failf "unquoted label value: %S" kv
               else (k, String.sub v 1 (n - 2)))

let parse_prom_line line =
  if String.length line >= 7 && String.sub line 0 7 = "# TYPE " then begin
    match String.split_on_char ' ' line with
    | [ _; _; name; kind ] ->
        checkb ("legal TYPE name " ^ name) true (legal_name name);
        checkb ("known kind " ^ kind) true
          (List.mem kind [ "counter"; "gauge"; "histogram" ]);
        `Type (name, kind)
    | _ -> Alcotest.failf "malformed TYPE line: %S" line
  end
  else
    match String.rindex_opt line ' ' with
    | None -> Alcotest.failf "malformed sample line: %S" line
    | Some sp ->
        let head = String.sub line 0 sp in
        let value = String.sub line (sp + 1) (String.length line - sp - 1) in
        let name, labels =
          match String.index_opt head '{' with
          | None -> (head, [])
          | Some ob ->
              let n = String.length head in
              if head.[n - 1] <> '}' then
                Alcotest.failf "unterminated label set: %S" line
              else
                ( String.sub head 0 ob,
                  parse_prom_labels (String.sub head (ob + 1) (n - ob - 2)) )
        in
        checkb ("legal sample name " ^ name) true (legal_name name);
        `Sample { p_name = name; p_labels = labels; p_value = parse_prom_value value }

let parse_prom text =
  String.split_on_char '\n' text
  |> List.filter (fun l -> l <> "")
  |> List.map parse_prom_line

let test_prometheus_exposition () =
  Metrics.reset ();
  Metrics.incr ~by:3 (Metrics.counter "prom.test.counter");
  Metrics.incr ~by:2 (Metrics.counter ~labels:[ ("op", "query") ] "prom.test.labelled");
  Metrics.incr ~by:5 (Metrics.counter ~labels:[ ("op", "insert") ] "prom.test.labelled");
  Metrics.set (Metrics.gauge "prom.test.gauge") 2.5;
  let h = Metrics.histogram "prom.test.histo" in
  List.iter (Metrics.observe h) [ 0.005; 0.05; 3.0 ];
  let lines = parse_prom (Metrics.to_prometheus (Metrics.snapshot ())) in
  (* One # TYPE per exposition name, and it precedes that name's samples. *)
  let seen_types = Hashtbl.create 8 in
  List.iter
    (function
      | `Type (name, kind) ->
          checkb ("single TYPE for " ^ name) true (not (Hashtbl.mem seen_types name));
          Hashtbl.replace seen_types name kind
      | `Sample s ->
          let base =
            List.fold_left
              (fun acc suffix ->
                let n = String.length acc and m = String.length suffix in
                if n > m && String.sub acc (n - m) m = suffix then
                  String.sub acc 0 (n - m)
                else acc)
              s.p_name [ "_bucket"; "_sum"; "_count" ]
          in
          checkb ("TYPE precedes samples of " ^ s.p_name) true
            (Hashtbl.mem seen_types s.p_name || Hashtbl.mem seen_types base))
    lines;
  let samples =
    List.filter_map (function `Sample s -> Some s | `Type _ -> None) lines
  in
  let find ?(labels = []) name =
    match
      List.find_opt (fun s -> s.p_name = name && s.p_labels = labels) samples
    with
    | Some s -> s.p_value
    | None -> Alcotest.failf "no sample %s%s" name (String.concat "," (List.map fst labels))
  in
  (* Round-trip: the registry's values survive exposition and re-parse. *)
  checkf "counter value" 3. (find "prom_test_counter");
  checkf "labelled series query" 2.
    (find ~labels:[ ("op", "query") ] "prom_test_labelled");
  checkf "labelled series insert" 5.
    (find ~labels:[ ("op", "insert") ] "prom_test_labelled");
  checkf "gauge value" 2.5 (find "prom_test_gauge");
  checkf "histogram count" 3. (find "prom_test_histo_count");
  checkf "histogram sum" 3.055 (find "prom_test_histo_sum");
  (* Buckets are cumulative, non-decreasing, and end at le="+Inf" with
     the total count. *)
  let buckets =
    List.filter (fun s -> s.p_name = "prom_test_histo_bucket") samples
    |> List.map (fun s ->
           (parse_prom_value (List.assoc "le" s.p_labels), s.p_value))
  in
  checkb "has buckets" true (buckets <> []);
  let bounds = List.map fst buckets in
  checkb "le bounds ascend" true (List.sort compare bounds = bounds);
  let counts = List.map snd buckets in
  checkb "cumulative counts non-decreasing" true
    (List.sort compare counts = counts);
  let inf_bound, inf_count = List.nth buckets (List.length buckets - 1) in
  checkb "last bucket is +Inf" true (inf_bound = infinity);
  checkf "+Inf bucket equals count" 3. inf_count

let test_prometheus_sanitizes () =
  Metrics.reset ();
  Metrics.incr (Metrics.counter "server.cache.hits");
  let text = Metrics.to_prometheus (Metrics.snapshot ()) in
  checkb "dots become underscores" true
    (contains ~needle:"server_cache_hits 1" text);
  checkb "no dotted name survives" true (not (contains ~needle:"server.cache" text));
  List.iter (fun l -> ignore (parse_prom_line l)) (String.split_on_char '\n' text |> List.filter (fun l -> l <> ""))

(* ------------------------------------------------------------------ *)
(* Golden test: the executor emits the expected series                  *)
(* ------------------------------------------------------------------ *)

let expected_series =
  [
    "executor.candidates";
    "executor.embeddings";
    "executor.phase.seconds";
    "executor.results";
    "executor.select.total";
    "rewrite.fanout";
    "rewrite.label_queries";
    "rewrite.patterns";
    "store.eval.queries";
    "store.eval.results";
    "tax.embed.candidates_considered";
    "tax.embed.embeddings";
    "tax.embed.enumerations";
  ]

(* Series the compiled (default) matcher emits on top of the above. *)
let expected_compiled_series =
  [
    "compile.matchers";
    "compile.matches";
    "compile.nodes.visited";
    "planner.plans.compiled";
  ]

let test_executor_emits_metrics () =
  Metrics.reset ();
  let seo =
    match
      Seo.of_documents ~metric:Workload.experiment_metric ~eps:2.0
        [ Doc.of_tree db ]
    with
    | Ok seo -> seo
    | Error msg -> failwith msg
  in
  Metrics.reset ();
  let coll = Collection.create "golden" in
  ignore (Collection.add_document coll db);
  let coll = Collection.snapshot coll in
  let results, stats =
    Executor.select ~compile:false seo coll ~pattern:ullman_pattern ~sl:[ 1 ]
  in
  checki "query finds the paper" 1 (List.length results);
  let snap = Metrics.snapshot () in
  let names = Metrics.names snap in
  List.iter
    (fun expected ->
      checkb (Printf.sprintf "series %s emitted" expected) true
        (List.mem expected names))
    expected_series;
  checki "one select" 1
    (Option.get (Metrics.find_counter snap "executor.select.total"));
  (* The sizes in the registry agree with the stats record. *)
  let histo_sum name =
    let h = histo_stats name in
    int_of_float h.Metrics.sum
  in
  checki "candidates agree" stats.Executor.n_candidates
    (histo_sum "executor.candidates");
  checki "results agree" stats.Executor.n_results (histo_sum "executor.results");
  (* A compiled run adds the matcher series. *)
  let _, _ = Executor.select seo coll ~pattern:ullman_pattern ~sl:[ 1 ] in
  let snap = Metrics.snapshot () in
  let names = Metrics.names snap in
  List.iter
    (fun expected ->
      checkb (Printf.sprintf "series %s emitted" expected) true
        (List.mem expected names))
    expected_compiled_series;
  checki "one matcher built" 1
    (Option.get (Metrics.find_counter snap "compile.matchers"))

let test_stats_phases_are_trace_view () =
  let seo =
    match
      Seo.of_documents ~metric:Workload.experiment_metric ~eps:2.0
        [ Doc.of_tree db ]
    with
    | Ok seo -> seo
    | Error msg -> failwith msg
  in
  let coll = Collection.create "view" in
  ignore (Collection.add_document coll db);
  let coll = Collection.snapshot coll in
  let _, stats = Executor.select seo coll ~pattern:ullman_pattern ~sl:[ 1 ] in
  let trace = stats.Executor.trace in
  checks "root span" "executor.select" trace.Span.name;
  let dur name =
    match Span.find trace name with
    | Some s -> s.Span.elapsed_s
    | None -> Alcotest.failf "phase span %s missing" name
  in
  checkf "rewrite agrees" stats.Executor.phases.Executor.rewrite_s (dur "rewrite");
  checkf "execute agrees" stats.Executor.phases.Executor.execute_s (dur "execute");
  checkf "assemble agrees" stats.Executor.phases.Executor.assemble_s (dur "assemble")

let () =
  Alcotest.run "toss_obs"
    [
      ( "counters",
        [
          Alcotest.test_case "basics" `Quick test_counter_basics;
          Alcotest.test_case "identity" `Quick test_counter_identity;
          Alcotest.test_case "labels" `Quick test_counter_labels;
          Alcotest.test_case "kind conflict" `Quick test_kind_conflict;
          Alcotest.test_case "reset keeps handles" `Quick test_reset_keeps_handles;
          Alcotest.test_case "reset keeps gauge handles" `Quick
            test_reset_keeps_gauge_handles;
          Alcotest.test_case "reset keeps histogram handles" `Quick
            test_reset_keeps_histogram_handles;
          Alcotest.test_case "multi-domain hammer" `Quick test_multidomain_hammer;
        ] );
      ( "histograms",
        [
          Alcotest.test_case "summary" `Quick test_histogram_summary;
          Alcotest.test_case "buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "empty" `Quick test_histogram_empty;
          Alcotest.test_case "json export" `Quick test_json_export;
          Alcotest.test_case "quantile point mass" `Quick test_quantile_point_mass;
          Alcotest.test_case "quantile monotone" `Quick
            test_quantile_monotone_and_bounded;
          Alcotest.test_case "quantile single observation" `Quick
            test_quantile_single_observation;
          Alcotest.test_case "quantile decade boundary" `Quick
            test_quantile_decade_boundary;
          Alcotest.test_case "quantile clamps q" `Quick test_quantile_clamps_q;
          Alcotest.test_case "quantiles exported" `Quick test_quantiles_in_exports;
        ] );
      ( "prometheus",
        [
          Alcotest.test_case "exposition round-trip" `Quick
            test_prometheus_exposition;
          Alcotest.test_case "name sanitization" `Quick test_prometheus_sanitizes;
        ] );
      ( "trace",
        [
          Alcotest.test_case "scoping" `Quick test_trace_scoping;
          Alcotest.test_case "generation" `Quick test_trace_generate;
          Alcotest.test_case "validation" `Quick test_trace_validation;
          Alcotest.test_case "stamps events and spans" `Quick
            test_trace_stamps_spans;
        ] );
      ( "events",
        [
          Alcotest.test_case "slow-query threshold" `Quick test_slow_query_threshold;
          Alcotest.test_case "slow-query record replays" `Quick
            test_slow_query_record_replays;
          Alcotest.test_case "executor event stream" `Quick
            test_interpreted_tree_facts;
          Alcotest.test_case "compiled event stream" `Quick
            test_compiled_tree_facts;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "exception safety" `Quick test_span_exception_safety;
          Alcotest.test_case "json escaping" `Quick test_span_json_escaping;
        ] );
      ( "executor integration",
        [
          Alcotest.test_case "golden metric names" `Quick test_executor_emits_metrics;
          Alcotest.test_case "phases = trace view" `Quick test_stats_phases_are_trace_view;
        ] );
    ]
