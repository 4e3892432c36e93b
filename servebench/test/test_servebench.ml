(* The benchmark's own arithmetic: the percentile rule, the seeded
   schedule, span self times, and the metrics derived from a response
   stream. *)

let feq = Alcotest.float 1e-9

(* ---- percentiles ---- *)

let percentile_rule () =
  Alcotest.(check bool) "200 samples support p95" true (Stats.supported ~n:200 0.95);
  Alcotest.(check int) "exactly ten beyond" 10 (Stats.beyond ~n:200 0.95);
  Alcotest.(check bool) "199 samples do not" false (Stats.supported ~n:199 0.95);
  Alcotest.(check bool) "p50 needs 20" true (Stats.supported ~n:20 0.5);
  Alcotest.(check bool) "empty never" false (Stats.supported ~n:0 0.5)

let nearest_rank () =
  let s = Stats.sorted (Array.init 100 (fun i -> float_of_int (100 - i))) in
  Alcotest.check feq "p95 of 1..100" 95. (Stats.percentile s 0.95);
  Alcotest.check feq "p50 of 1..100" 50. (Stats.percentile s 0.5);
  Alcotest.check feq "p100 is the max" 100. (Stats.percentile s 1.0);
  Alcotest.check feq "median of three" 2. (Stats.median [| 3.; 1.; 2. |])

(* ---- schedule ---- *)

let schedule seed = Schedule.make ~seed ~rate:50. ~seconds:10. ~n_queries:40 ~insert_every:9 ()

let same_seed_same_schedule () =
  let a = schedule 3 and b = schedule 3 in
  Alcotest.(check (array feq)) "same arrivals" a.Schedule.due b.Schedule.due;
  Alcotest.(check bool) "same kinds" true (a.Schedule.kinds = b.Schedule.kinds)

let insert_positions_fixed () =
  let a = schedule 3 and b = schedule 4 in
  Alcotest.(check bool) "arrivals differ by seed" true (a.Schedule.due <> b.Schedule.due);
  Alcotest.(check int) "fixed count" 500 (Array.length a.Schedule.due);
  Alcotest.(check int) "same count for another seed" 500 (Array.length b.Schedule.due);
  Alcotest.(check (list int)) "same insert positions" (Schedule.insert_positions a)
    (Schedule.insert_positions b);
  Alcotest.(check int) "every ninth arrival" 55 (Schedule.n_inserts a);
  Alcotest.(check bool) "arrivals increase" true
    (Array.for_all Fun.id (Array.init 499 (fun i -> a.Schedule.due.(i) < a.Schedule.due.(i + 1))))

let zipf_is_skewed () =
  let s = Schedule.make ~seed:1 ~rate:1000. ~seconds:5. ~n_queries:12 ~zipf:1.1 () in
  let count q =
    Array.fold_left (fun n k -> if k = Schedule.Read q then n + 1 else n) 0 s.Schedule.kinds
  in
  Alcotest.(check bool) "head drawn more than tail" true (count 0 > 3 * count 11)

(* ---- spans ---- *)

let span ?parent id name start stop = { Spans.id; parent; name; start; stop; trace_id = "t" }

let self_time_union () =
  (* overlapping children count once; the part of a child outside its
     parent does not reduce the parent *)
  let root = span 1 "root" 0. 10. in
  let spans =
    [ root; span ~parent:1 2 "a" 1. 3.; span ~parent:1 3 "b" 2. 5.; span ~parent:1 4 "c" 8. 12. ]
  in
  Alcotest.check feq "root self" 4. (Spans.self_time spans root);
  Alcotest.check feq "leaf self is its duration" 2. (Spans.self_time spans (List.nth spans 1))

let coverage_tiles () =
  let root = span 1 "transport" 0. 10. in
  let tiled = [ root; span ~parent:1 2 "queue" 1. 2.; span ~parent:1 3 "exec" 2. 9. ] in
  Alcotest.check feq "layers tile the call" 1. (Spans.coverage tiled root);
  let over = [ root; span ~parent:1 2 "exec" 0. 8.; span ~parent:2 3 "match" 0. 12. ] in
  Alcotest.(check bool) "a child longer than its parent shows" true (Spans.coverage over root > 1.)

(* ---- stream metrics ---- *)

let ev op sent received version xml_bytes = { Measure.op; sent; received; version; xml_bytes }

let stream =
  Measure.
    [
      ev Insert 1.0 1.001 (Some 5) 400;
      ev Read 1.0 1.05 (Some 4) 0;  (* still the old version *)
      ev Read 1.02 1.10 (Some 5) 0;  (* first to see version 5 *)
      ev Read 1.2 1.3 (Some 5) 0;
      ev Insert 2.0 2.001 (Some 6) 600;
      ev Insert 2.5 2.6 None 1000;  (* failed: neither visible nor stored *)
      ev Read 2.1 2.4 (Some 7) 0;  (* a later version also shows version 6 *)
    ]

let visibility () =
  Alcotest.(check (list (float 1e-6))) "per insert" [ 100.; 400. ] (Measure.visible_ms stream)

let space_amplification () =
  Alcotest.(check int) "bytes of acknowledged inserts" 1000 (Measure.inserted_bytes stream);
  Alcotest.check feq "db over inserted" 1.5 (Measure.space_amp ~db_bytes:1500 stream);
  Alcotest.check feq "nothing inserted" 0. (Measure.space_amp ~db_bytes:10 [])

let rebuilds () =
  (* versions 5 and 7 were read after base 4: two rebuilds, two inserts *)
  Alcotest.check feq "builds per insert" 1. (Measure.builds_per_insert ~base:4 stream)

let () =
  Alcotest.run "servebench"
    [
      ("percentile", [ Alcotest.test_case "ten beyond" `Quick percentile_rule;
                       Alcotest.test_case "nearest rank" `Quick nearest_rank ]);
      ( "schedule",
        [ Alcotest.test_case "deterministic by seed" `Quick same_seed_same_schedule;
          Alcotest.test_case "insert positions" `Quick insert_positions_fixed;
          Alcotest.test_case "zipf" `Quick zipf_is_skewed ] );
      ("spans", [ Alcotest.test_case "self time" `Quick self_time_union;
                  Alcotest.test_case "coverage" `Quick coverage_tiles ]);
      ( "stream",
        [ Alcotest.test_case "visible" `Quick visibility;
          Alcotest.test_case "space_amp" `Quick space_amplification;
          Alcotest.test_case "builds per insert" `Quick rebuilds ] );
    ]
