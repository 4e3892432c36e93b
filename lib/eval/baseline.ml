type entry = { median_s : float; runs : int }
type t = { label : string; entries : (string * entry) list }

let v ~label entries =
  if label = "" then invalid_arg "Baseline.v: empty label";
  { label; entries }

(* The artifact is written through the shared JSON writer; medians keep
   full precision (the writer escalates to %.17g whenever a shorter
   rendering would not re-parse to the same float). *)
let to_json t =
  Toss_json.to_string
    (Toss_json.Obj
       [
         ("bench", Toss_json.Str t.label);
         ( "experiments",
           Toss_json.Obj
             (List.map
                (fun (name, e) ->
                  ( name,
                    Toss_json.Obj
                      [
                        ("median_s", Toss_json.Num e.median_s);
                        ("runs", Toss_json.Num (float_of_int e.runs));
                      ] ))
                t.entries) );
       ])

let of_json s =
  match Toss_json.parse s with
  | Error msg -> Error ("baseline: " ^ msg)
  | Ok json -> (
      let label =
        Option.bind (Toss_json.member "bench" json) Toss_json.to_str
      in
      match (label, Toss_json.member "experiments" json) with
      | Some label, Some (Toss_json.Obj kvs) ->
          let entry (name, v) =
            match Option.bind (Toss_json.member "median_s" v) Toss_json.to_num with
            | Some median_s ->
                let runs =
                  match
                    Option.bind (Toss_json.member "runs" v) Toss_json.to_num
                  with
                  | Some r -> int_of_float r
                  | None -> 1
                in
                Ok (name, { median_s; runs })
            | None -> Error (Printf.sprintf "baseline: experiment %S has no median_s" name)
          in
          let rec all acc = function
            | [] -> Ok { label; entries = List.rev acc }
            | kv :: rest -> (
                match entry kv with
                | Ok e -> all (e :: acc) rest
                | Error _ as e -> e)
          in
          all [] kvs
      | _ -> Error "baseline: missing \"bench\" or \"experiments\"")

let save ~path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (to_json t);
      output_char oc '\n')

let load ~path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
      let s =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      of_json s

(* The middle value; the upper of the two middle values for an even
   count, as [Bench_util.time_median] takes it. *)
let median_of xs =
  let sorted = List.sort Float.compare xs in
  List.nth sorted (List.length sorted / 2)

(* Kernel names across records, first-seen order. *)
let names records =
  List.fold_left
    (fun acc r ->
      List.fold_left
        (fun acc (name, _) -> if List.mem name acc then acc else acc @ [ name ])
        acc r.entries)
    [] records

let median = function
  | [] -> invalid_arg "Baseline.median: no records"
  | first :: _ as records ->
      let entry name =
        let es = List.filter_map (fun r -> List.assoc_opt name r.entries) records in
        {
          median_s = median_of (List.map (fun e -> e.median_s) es);
          runs = List.fold_left (fun acc e -> acc + e.runs) 0 es;
        }
      in
      { label = first.label; entries = List.map (fun n -> (n, entry n)) (names records) }

let tolerance = 0.2

type verdict = {
  name : string;
  parent_s : float;
  change_s : float;
  ratio : float;
  ok : bool;
}

let compare_runs rounds =
  if rounds = [] then invalid_arg "Baseline.compare_runs: no rounds";
  let parents = List.map fst rounds and changes = List.map snd rounds in
  let parent = median parents and change = median changes in
  let median_s name r =
    match List.assoc_opt name r.entries with Some e -> e.median_s | None -> nan
  in
  let parent_names = names parents in
  let verdict name =
    if not (List.mem name parent_names) then
      { name; parent_s = nan; change_s = median_s name change; ratio = nan; ok = true }
    else
      (* One ratio per round whose parent measured the kernel: [nan] when
         that round's change did not, which fails the kernel. Parents are
         floored at a microsecond: below that the ratio is clock noise,
         not a regression signal. *)
      let ratios =
        List.filter_map
          (fun (p, c) ->
            Option.map
              (fun pe -> median_s name c /. Float.max pe.median_s 1e-6)
              (List.assoc_opt name p.entries))
          rounds
      in
      let ratio = if List.exists Float.is_nan ratios then nan else median_of ratios in
      {
        name;
        parent_s = median_s name parent;
        change_s = median_s name change;
        ratio;
        ok = ratio <= 1. +. tolerance;
      }
  in
  let verdicts = List.map verdict (names (parents @ changes)) in
  (verdicts, List.for_all (fun v -> v.ok) verdicts)

let pp_verdicts ppf verdicts =
  let name_w =
    List.fold_left (fun w v -> Stdlib.max w (String.length v.name)) 10 verdicts
  in
  Format.fprintf ppf "@[<v>%-*s %12s %12s %7s  %s@,"
    name_w "kernel" "parent (ms)" "change (ms)" "ratio" "gate";
  List.iter
    (fun v ->
      let gate =
        if Float.is_nan v.parent_s then "new"
        else if v.ok then "ok"
        else if Float.is_nan v.ratio then "missing"
        else "FAIL"
      in
      Format.fprintf ppf "%-*s %12.3f %12.3f %7.2f  %s@," name_w v.name
        (1000. *. v.parent_s) (1000. *. v.change_s) v.ratio gate)
    verdicts;
  Format.fprintf ppf "@]"
