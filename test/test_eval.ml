(* Tests for precision / recall / quality metrics and the bench helpers. *)

module Quality = Toss_eval.Quality
module Bench_util = Toss_eval.Bench_util

let checkf = Alcotest.(check (float 1e-9))
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let test_counts () =
  let c = Quality.counts ~correct:[ "a"; "b"; "c" ] ~returned:[ "b"; "c"; "d" ] in
  checki "tp" 2 c.Quality.tp;
  checki "fp" 1 c.Quality.fp;
  checki "fn" 1 c.Quality.fn

let test_counts_dedup () =
  let c = Quality.counts ~correct:[ "a"; "a" ] ~returned:[ "a"; "a"; "a" ] in
  checki "tp deduped" 1 c.Quality.tp;
  checki "fp deduped" 0 c.Quality.fp

let test_precision_recall () =
  checkf "precision" (2. /. 3.)
    (Quality.precision ~correct:[ "a"; "b"; "c" ] ~returned:[ "b"; "c"; "d" ]);
  checkf "recall" (2. /. 3.)
    (Quality.recall ~correct:[ "a"; "b"; "c" ] ~returned:[ "b"; "c"; "d" ]);
  checkf "perfect" 1.0 (Quality.precision ~correct:[ "a" ] ~returned:[ "a" ]);
  checkf "all wrong" 0.0 (Quality.precision ~correct:[ "a" ] ~returned:[ "b" ])

let test_edge_conventions () =
  (* TAX's empty answers must read as precision 1 (the paper's headline
     "TAX always gets 100% precision"). *)
  checkf "empty answer precision 1" 1.0 (Quality.precision ~correct:[ "a" ] ~returned:[]);
  checkf "empty answer recall 0" 0.0 (Quality.recall ~correct:[ "a" ] ~returned:[]);
  checkf "nothing correct recall 1" 1.0 (Quality.recall ~correct:[] ~returned:[ "x" ]);
  checkf "nothing correct precision 0" 0.0 (Quality.precision ~correct:[] ~returned:[ "x" ])

let test_quality () =
  checkf "geometric mean" (sqrt 0.5) (Quality.quality ~precision:1.0 ~recall:0.5);
  checkf "zero recall" 0.0 (Quality.quality ~precision:1.0 ~recall:0.0);
  let p, r, q = Quality.evaluate ~correct:[ "a"; "b" ] ~returned:[ "a" ] in
  checkf "evaluate precision" 1.0 p;
  checkf "evaluate recall" 0.5 r;
  checkf "evaluate quality" (sqrt 0.5) q

let test_f1 () =
  checkf "balanced" 0.5 (Quality.f1 ~precision:0.5 ~recall:0.5);
  checkf "degenerate" 0.0 (Quality.f1 ~precision:0.0 ~recall:0.0)

let test_mean () =
  checkf "empty" 0.0 (Quality.mean []);
  checkf "values" 2.0 (Quality.mean [ 1.0; 2.0; 3.0 ])

let test_time () =
  let x, t = Bench_util.time (fun () -> 42) in
  checki "result passed through" 42 x;
  checkb "non-negative" true (t >= 0.);
  let x, t = Bench_util.time_median ~runs:3 (fun () -> 7) in
  checki "median result" 7 x;
  checkb "median non-negative" true (t >= 0.)

let test_formatting () =
  Alcotest.(check string) "seconds" "0.1235" (Bench_util.fs 0.12345);
  Alcotest.(check string) "two decimals" "3.14" (Bench_util.f2 3.14159);
  Alcotest.(check string) "three decimals" "0.333" (Bench_util.f3 (1. /. 3.))

module Series = Toss_eval.Series

let sample_series =
  Series.v ~name:"fig"
    ~columns:[ "x"; "tax"; "toss" ]
    [ [ "1"; "0.1"; "0.2" ]; [ "2"; "0.3"; "0.4" ] ]

let test_series_csv () =
  Alcotest.(check string) "csv" "x,tax,toss\n1,0.1,0.2\n2,0.3,0.4\n"
    (Series.to_csv sample_series)

let test_series_escaping () =
  let s =
    Series.v ~name:"esc" ~columns:[ "a" ] [ [ "plain" ]; [ "with,comma" ]; [ "say \"hi\"" ] ]
  in
  Alcotest.(check string) "quoted fields" "a\nplain\n\"with,comma\"\n\"say \"\"hi\"\"\"\n"
    (Series.to_csv s)

let test_series_validation () =
  Alcotest.check_raises "ragged row"
    (Invalid_argument "Series.v: row 0 has 1 fields, header has 2") (fun () ->
      ignore (Series.v ~name:"x" ~columns:[ "a"; "b" ] [ [ "1" ] ]));
  Alcotest.check_raises "empty name" (Invalid_argument "Series.v: empty name")
    (fun () -> ignore (Series.v ~name:"" ~columns:[] []))

let temp_dir () =
  let dir = Filename.temp_file "toss_eval" "" in
  Sys.remove dir;
  dir

let test_series_save () =
  let dir = temp_dir () in
  let path = Series.save_csv ~dir sample_series in
  checkb "file exists" true (Sys.file_exists path);
  let paths = Series.save_all ~dir [ sample_series ] in
  checki "csv, gp and json" 3 (List.length paths);
  checkb "writes the json" true
    (List.exists (fun p -> Filename.check_suffix p ".json") paths)

let test_series_gnuplot () =
  let gp = Series.gnuplot_script sample_series in
  let has needle =
    let nh = String.length gp and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub gp i nn = needle || go (i + 1)) in
    go 0
  in
  checkb "reads the csv" true (has "fig.csv");
  checkb "plots both value columns" true (has "using 1:2" && has "using 1:3")

module Json = Toss_json
module Baseline = Toss_eval.Baseline

let test_json_values () =
  let p = Json.parse_exn in
  checkb "null" true (p "null" = Json.Null);
  checkb "bools" true (p "true" = Json.Bool true && p "false" = Json.Bool false);
  checkf "int" 42. (Option.get (Json.to_num (p "42")));
  checkf "negative exponent" 1.5e-3 (Option.get (Json.to_num (p "1.5e-3")));
  Alcotest.(check string) "string" "hi" (Option.get (Json.to_str (p "\"hi\"")));
  checkb "whitespace tolerated" true (p "  [ 1 , 2 ]  " = Json.Arr [ Json.Num 1.; Json.Num 2. ]);
  checkb "empty containers" true (p "[]" = Json.Arr [] && p "{}" = Json.Obj [])

let test_json_escapes () =
  Alcotest.(check string) "standard escapes" "a\"b\\c\nd\te"
    (Option.get (Json.to_str (Json.parse_exn {|"a\"b\\c\nd\te"|})));
  Alcotest.(check string) "unicode escape to utf-8" "\xc3\xa9"
    (Option.get (Json.to_str (Json.parse_exn {|"\u00e9"|})))

let test_json_nesting_and_member () =
  let j = Json.parse_exn {|{"a":{"b":[1,{"c":true}]},"a":2}|} in
  let b = Option.get (Option.bind (Json.member "a" j) (Json.member "b")) in
  (match Json.to_list b with
  | Some [ one; obj ] ->
      checkf "array element" 1. (Option.get (Json.to_num one));
      checkb "nested bool" true
        (Option.get (Option.bind (Json.member "c" obj) Json.to_bool))
  | _ -> Alcotest.fail "expected a two-element array");
  checkb "member returns the first duplicate" true
    (Json.member "a" j <> Some (Json.Num 2.))

let test_json_errors () =
  let fails s = match Json.parse s with Error _ -> true | Ok _ -> false in
  checkb "empty input" true (fails "");
  checkb "trailing garbage" true (fails "1 2");
  checkb "unterminated string" true (fails "\"abc");
  checkb "missing bracket" true (fails "[1,2");
  checkb "bare word" true (fails "nope")

let sample_baseline =
  Baseline.v ~label:"suite"
    [
      ("fast", { Baseline.median_s = 0.001; runs = 5 });
      ("slow", { Baseline.median_s = 0.5; runs = 5 });
    ]

let test_baseline_roundtrip () =
  match Baseline.of_json (Baseline.to_json sample_baseline) with
  | Error msg -> Alcotest.failf "round trip failed: %s" msg
  | Ok b ->
      Alcotest.(check string) "label" sample_baseline.Baseline.label b.Baseline.label;
      checki "entries" 2 (List.length b.Baseline.entries);
      let fast = List.assoc "fast" b.Baseline.entries in
      checkb "median survives" true (abs_float (fast.Baseline.median_s -. 0.001) < 1e-9);
      checki "runs survive" 5 fast.Baseline.runs

let test_baseline_save_load () =
  let path = Filename.temp_file "toss_baseline" ".json" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Baseline.save ~path sample_baseline;
  match Baseline.load ~path with
  | Error msg -> Alcotest.failf "load failed: %s" msg
  | Ok b -> checki "entries survive the disk" 2 (List.length b.Baseline.entries)

let current ~factor =
  Baseline.v ~label:"suite"
    (List.map
       (fun (name, (e : Baseline.entry)) ->
         (name, { e with Baseline.median_s = e.Baseline.median_s *. factor }))
       sample_baseline.Baseline.entries)

let test_gate_passes_within_tolerance () =
  let verdicts, ok =
    Baseline.compare_runs ~baseline:sample_baseline ~current:(current ~factor:1.1) ()
  in
  checkb "10% slower passes at 20% tolerance" true ok;
  checki "one verdict per experiment" 2 (List.length verdicts);
  checkb "ratios recorded" true
    (List.for_all (fun v -> abs_float (v.Baseline.ratio -. 1.1) < 1e-6) verdicts)

let test_gate_fails_on_regression () =
  let verdicts, ok =
    Baseline.compare_runs ~baseline:sample_baseline ~current:(current ~factor:2.0) ()
  in
  checkb "2x slowdown fails" true (not ok);
  checkb "every experiment flagged" true
    (List.for_all (fun v -> not v.Baseline.ok) verdicts)

let test_gate_tolerance_is_a_knob () =
  let _, ok =
    Baseline.compare_runs ~tolerance:1.5 ~baseline:sample_baseline
      ~current:(current ~factor:2.0) ()
  in
  checkb "2x passes at 150% tolerance" true ok;
  let _, strict =
    Baseline.compare_runs ~tolerance:0.05 ~baseline:sample_baseline
      ~current:(current ~factor:1.1) ()
  in
  checkb "10% fails at 5% tolerance" true (not strict)

let test_gate_missing_experiment_fails () =
  let partial =
    Baseline.v ~label:"suite" [ ("fast", { Baseline.median_s = 0.001; runs = 5 }) ]
  in
  let verdicts, ok =
    Baseline.compare_runs ~baseline:sample_baseline ~current:partial ()
  in
  checkb "missing experiment fails the gate" true (not ok);
  let missing = List.find (fun v -> v.Baseline.name = "slow") verdicts in
  checkb "its current time is nan" true (Float.is_nan missing.Baseline.current_s);
  (* Extra current-only experiments have nothing to regress against. *)
  let _, ok =
    Baseline.compare_runs ~baseline:partial ~current:sample_baseline ()
  in
  checkb "superset current passes" true ok

let () =
  Alcotest.run "toss_eval"
    [
      ( "quality",
        [
          Alcotest.test_case "counts" `Quick test_counts;
          Alcotest.test_case "set semantics" `Quick test_counts_dedup;
          Alcotest.test_case "precision and recall" `Quick test_precision_recall;
          Alcotest.test_case "edge conventions" `Quick test_edge_conventions;
          Alcotest.test_case "quality" `Quick test_quality;
          Alcotest.test_case "f1" `Quick test_f1;
          Alcotest.test_case "mean" `Quick test_mean;
        ] );
      ( "bench utilities",
        [
          Alcotest.test_case "timing" `Quick test_time;
          Alcotest.test_case "formatting" `Quick test_formatting;
        ] );
      ( "series",
        [
          Alcotest.test_case "csv rendering" `Quick test_series_csv;
          Alcotest.test_case "csv escaping" `Quick test_series_escaping;
          Alcotest.test_case "validation" `Quick test_series_validation;
          Alcotest.test_case "save" `Quick test_series_save;
          Alcotest.test_case "gnuplot script" `Quick test_series_gnuplot;
        ] );
      ( "json",
        [
          Alcotest.test_case "values" `Quick test_json_values;
          Alcotest.test_case "escapes" `Quick test_json_escapes;
          Alcotest.test_case "nesting and member" `Quick test_json_nesting_and_member;
          Alcotest.test_case "errors" `Quick test_json_errors;
        ] );
      ( "baseline gate",
        [
          Alcotest.test_case "json round trip" `Quick test_baseline_roundtrip;
          Alcotest.test_case "save and load" `Quick test_baseline_save_load;
          Alcotest.test_case "passes within tolerance" `Quick
            test_gate_passes_within_tolerance;
          Alcotest.test_case "fails on regression" `Quick test_gate_fails_on_regression;
          Alcotest.test_case "tolerance knob" `Quick test_gate_tolerance_is_a_knob;
          Alcotest.test_case "missing experiment" `Quick
            test_gate_missing_experiment_fails;
        ] );
    ]
