(* Spans recorded by the benchmark around its own calls into each layer.

   A span's self time is its duration minus the part of its interval that
   its children cover (overlapping children are counted once), clamped at
   zero. *)

type t = {
  id : int;
  parent : int option;
  name : string;
  start : float;  (** seconds, any common origin *)
  stop : float;
  trace_id : string;
}

let duration s = s.stop -. s.start

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let rec go acc cur = function
    | [] -> ( match cur with None -> acc | Some (a, b) -> acc +. (b -. a))
    | (a, b) :: rest -> (
        match cur with
        | None -> go acc (Some (a, b)) rest
        | Some (ca, cb) ->
            if a <= cb then go acc (Some (ca, Float.max cb b)) rest
            else go (acc +. (cb -. ca)) (Some (a, b)) rest)
  in
  go 0. None clipped

let children spans s = List.filter (fun c -> c.parent = Some s.id) spans

(* Children that overrun their parent make the parent's self time 0 but
   keep their own full duration, so a sum of self times over a tree
   exceeds the root's duration exactly when the children do not fit. *)
let self_time spans s =
  let kids = List.map (fun c -> (c.start, c.stop)) (children spans s) in
  Float.max 0. (duration s -. covered ~lo:s.start ~hi:s.stop kids)

let rec subtree spans s = s :: List.concat_map (subtree spans) (children spans s)

(* Sum of self times over [root]'s subtree, divided by [root]'s duration:
   1 when the layers tile the root, above 1 when a layer's measured time
   does not fit inside its parent's. *)
let coverage spans root =
  let d = duration root in
  if d <= 0. then 0.
  else List.fold_left (fun acc s -> acc +. self_time spans s) 0. (subtree spans root) /. d

let to_json s =
  Toss_json.Obj
    [
      ("name", Toss_json.Str s.name);
      ("id", Toss_json.Num (float_of_int s.id));
      ( "parent",
        match s.parent with None -> Toss_json.Null | Some p -> Toss_json.Num (float_of_int p) );
      ("start", Toss_json.Num s.start);
      ("end", Toss_json.Num s.stop);
      ("trace_id", Toss_json.Str s.trace_id);
    ]
