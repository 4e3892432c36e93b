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

type verdict = {
  name : string;
  baseline_s : float;
  current_s : float;
  ratio : float;
  ok : bool;
}

let compare_runs ?(tolerance = 0.2) ~baseline ~current () =
  let verdicts =
    List.map
      (fun (name, (base : entry)) ->
        match List.assoc_opt name current.entries with
        | None ->
            { name; baseline_s = base.median_s; current_s = nan; ratio = nan; ok = false }
        | Some cur ->
            (* Floor sub-microsecond baselines: at that scale the ratio is
               clock noise, not a regression signal. *)
            let ratio = cur.median_s /. Float.max base.median_s 1e-6 in
            {
              name;
              baseline_s = base.median_s;
              current_s = cur.median_s;
              ratio;
              ok = ratio <= 1. +. tolerance;
            })
      baseline.entries
  in
  (verdicts, List.for_all (fun v -> v.ok) verdicts)

let pp_verdicts ppf verdicts =
  let name_w =
    List.fold_left (fun w v -> Stdlib.max w (String.length v.name)) 10 verdicts
  in
  Format.fprintf ppf "@[<v>%-*s %12s %12s %7s  %s@,"
    name_w "experiment" "base (ms)" "cur (ms)" "ratio" "gate";
  List.iter
    (fun v ->
      Format.fprintf ppf "%-*s %12.3f %12.3f %7.2f  %s@," name_w v.name
        (1000. *. v.baseline_s) (1000. *. v.current_s) v.ratio
        (if v.ok then "ok" else "FAIL"))
    verdicts;
  Format.fprintf ppf "@]"
