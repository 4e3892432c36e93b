(* Metrics derived from the stream of answered requests. *)

type op = Read | Insert

type event = {
  op : op;
  sent : float;  (** seconds *)
  received : float;
  version : int option;  (** [None] when the request failed *)
  xml_bytes : int;  (** payload bytes of an insert; 0 for reads *)
}

(* For each successful insert: the time from sending it to the first read
   that completed at its version or a later one, in milliseconds. An
   insert no later read observed has no visibility time. *)
let visible_ms events =
  let reads =
    List.filter_map
      (fun e ->
        match (e.op, e.version) with Read, Some v -> Some (e.received, v) | _ -> None)
      events
  in
  List.filter_map
    (fun e ->
      match (e.op, e.version) with
      | Insert, Some v ->
          List.fold_left
            (fun best (r, rv) ->
              if rv >= v && r >= e.sent then
                match best with Some b when b <= r -> best | _ -> Some r
              else best)
            None reads
          |> Option.map (fun r -> (r -. e.sent) *. 1000.)
      | _ -> None)
    events

let inserted_bytes events =
  List.fold_left
    (fun n e -> match (e.op, e.version) with Insert, Some _ -> n + e.xml_bytes | _ -> n)
    0 events

(* Bytes the server keeps on disk per byte of XML it was sent. *)
let space_amp ~db_bytes events =
  match inserted_bytes events with 0 -> 0. | n -> float_of_int db_bytes /. float_of_int n

(* SEO rebuilds per insert, seen from outside: every insert invalidates
   the SEO and the next read rebuilds it, so each distinct version that a
   read answered at, beyond [base], is one rebuild. *)
let builds_per_insert ~base events =
  let inserts =
    List.length (List.filter (fun e -> e.op = Insert && e.version <> None) events)
  in
  let versions =
    List.sort_uniq compare
      (List.filter_map
         (fun e ->
           match (e.op, e.version) with Read, Some v when v > base -> Some v | _ -> None)
         events)
  in
  if inserts = 0 then 0. else float_of_int (List.length versions) /. float_of_int inserts

let rec dir_bytes path =
  match Sys.is_directory path with
  | true ->
      Array.fold_left
        (fun n f -> n + dir_bytes (Filename.concat path f))
        0 (Sys.readdir path)
  | false -> (Unix.stat path).Unix.st_size
  | exception Sys_error _ -> 0
