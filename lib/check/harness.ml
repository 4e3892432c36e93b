module Plan = Toss_core.Plan

type outcome =
  | Pass of { runs : int }
  | Fail of {
      run : int;  (** 1-based index of the failing run *)
      case_seed : int;
      failure : Diff.failure;  (** already shrunk *)
      steps : int;  (** cases tried while shrinking *)
    }

let fault_of_string = function
  | "none" -> Some Plan.No_fault
  | "hash-no-recheck" -> Some Plan.Hash_no_recheck
  | "prune-first-only" -> Some Plan.Prune_first_only
  | "no-dedup" -> Some Plan.No_dedup
  | "compile-skip-descendant-edge" -> Some Plan.Compile_skip_descendant_edge
  | "simjoin-prefix-too-short" -> Some Plan.Simjoin_prefix_too_short
  | "simjoin-no-recheck" -> Some Plan.Simjoin_no_recheck
  | _ -> None

let fault_names =
  [
    "none";
    "hash-no-recheck";
    "prune-first-only";
    "no-dedup";
    "compile-skip-descendant-edge";
    "simjoin-prefix-too-short";
    "simjoin-no-recheck";
  ]

let doc_count (case : Gen.case) =
  List.length case.Gen.docs + List.length case.Gen.right_docs

let run ?(fault = Plan.No_fault) ?op ~seed ~runs () =
  let master = Rng.create seed in
  let with_fault f =
    Plan.fault := fault;
    Fun.protect ~finally:(fun () -> Plan.fault := Plan.No_fault) f
  in
  with_fault (fun () ->
      let rec go i =
        if i > runs then Pass { runs }
        else
          let case_seed = Rng.sub_seed master in
          let case = Gen.case ?op case_seed in
          match Diff.check_case case with
          | None -> go (i + 1)
          | Some _ ->
              let _shrunk, failure, steps = Shrink.minimize case in
              Fail { run = i; case_seed; failure; steps }
      in
      go 1)

let repro (failure : Diff.failure) =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "(* mode=%s %s — %s *)\n" (Diff.mode_name failure.Diff.mode)
       (Diff.config_name failure.Diff.config)
       failure.Diff.detail);
  Buffer.add_string b (Gen.to_ocaml failure.Diff.case);
  Buffer.contents b

let report ppf outcome =
  match outcome with
  | Pass { runs } ->
      Format.fprintf ppf "PASS: %d cases, all engine configurations agree with the oracle@."
        runs
  | Fail { run; case_seed; failure; _ } ->
      let case = failure.Diff.case in
      Format.fprintf ppf "DISCREPANCY on run %d (case seed %d)@." run case_seed;
      Format.fprintf ppf "  mode: %s, %s@." (Diff.mode_name failure.Diff.mode)
        (Diff.config_name failure.Diff.config);
      Format.fprintf ppf "  %s@." failure.Diff.detail;
      Format.fprintf ppf "  shrunk to %d document(s)@." (doc_count case);
      Format.fprintf ppf "@[<v 2>  oracle (%d):@,%a@]@."
        (List.length failure.Diff.expected)
        (Format.pp_print_list (fun ppf t ->
             Format.pp_print_string ppf (Toss_xml.Printer.to_string t)))
        failure.Diff.expected;
      Format.fprintf ppf "@[<v 2>  executor (%d):@,%a@]@."
        (List.length failure.Diff.got)
        (Format.pp_print_list (fun ppf t ->
             Format.pp_print_string ppf (Toss_xml.Printer.to_string t)))
        failure.Diff.got;
      Format.fprintf ppf "shrunk case:@.%a@." Gen.pp case;
      Format.fprintf ppf "paste-into-test repro:@.%s@." (repro failure)
