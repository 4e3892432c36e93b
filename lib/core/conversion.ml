module Smap = Map.Make (String)

type t = { table : (string -> string) Smap.t Smap.t }
(* table.(from).(into) = direct conversion function *)

let empty = { table = Smap.empty }

let direct t ~from ~into =
  Option.bind (Smap.find_opt from t.table) (Smap.find_opt into)

let register ~from ~into f t =
  match direct t ~from ~into with
  | Some _ ->
      invalid_arg
        (Printf.sprintf "Conversion.register: %s -> %s already registered" from into)
  | None ->
      let row = Option.value ~default:Smap.empty (Smap.find_opt from t.table) in
      { table = Smap.add from (Smap.add into f row) t.table }

let types t =
  Smap.fold
    (fun from row acc -> from :: Smap.fold (fun into _ acc -> into :: acc) row acc)
    t.table []
  |> List.sort_uniq String.compare

let mem_type t ty =
  Smap.mem ty t.table || Smap.exists (fun _ row -> Smap.mem ty row) t.table

(* Breadth-first search over direct conversions, composing along the
   shortest path; identity for equal types. *)
let path t ~from ~into =
  if from = into then Some []
  else begin
    let visited = Hashtbl.create 16 in
    let queue = Queue.create () in
    Hashtbl.replace visited from [];
    Queue.add from queue;
    let found = ref None in
    while Option.is_none !found && not (Queue.is_empty queue) do
      let current = Queue.pop queue in
      let fns_so_far = Hashtbl.find visited current in
      match Smap.find_opt current t.table with
      | None -> ()
      | Some row ->
          Smap.iter
            (fun next f ->
              if Option.is_none !found && not (Hashtbl.mem visited next) then begin
                let fns = f :: fns_so_far in
                if next = into then found := Some (List.rev fns)
                else begin
                  Hashtbl.replace visited next fns;
                  Queue.add next queue
                end
              end)
            row
    done;
    !found
  end

let exists t ~from ~into = Option.is_some (path t ~from ~into)

let convert t ~from ~into value =
  match path t ~from ~into with
  | None -> None
  | Some fns -> Some (List.fold_left (fun v f -> f v) value fns)

(* Enumerate simple paths (as function lists) between two types, capped to
   avoid blowup on dense graphs. *)
let all_paths t ~from ~into =
  let results = ref [] in
  let rec go current fns visited =
    if List.length !results >= 16 then ()
    else if current = into then results := List.rev fns :: !results
    else
      match Smap.find_opt current t.table with
      | None -> ()
      | Some row ->
          Smap.iter
            (fun next f ->
              if not (List.mem next visited) then go next (f :: fns) (next :: visited))
            row
  in
  go from [] [ from ];
  !results

let check_coherence t ~samples =
  let errors = ref [] in
  let all_types = types t in
  List.iter
    (fun (ty, value) ->
      List.iter
        (fun target ->
          let outcomes =
            List.map
              (fun fns -> List.fold_left (fun v f -> f v) value fns)
              (all_paths t ~from:ty ~into:target)
          in
          match List.sort_uniq String.compare outcomes with
          | [] | [ _ ] -> ()
          | distinct ->
              errors :=
                Printf.sprintf "incoherent conversions %s -> %s on %S: {%s}" ty target
                  value
                  (String.concat ", " distinct)
                :: !errors)
        all_types)
    samples;
  match !errors with [] -> Ok () | es -> Error (List.rev es)

let numeric f s =
  match float_of_string_opt (String.trim s) with
  | Some x ->
      let y = f x in
      if Float.is_integer y && Float.abs y < 1e15 then
        string_of_int (int_of_float y)
      else string_of_float y
  | None -> s

let standard =
  empty
  |> register ~from:"int" ~into:"float" (numeric Fun.id)
  |> register ~from:"year" ~into:"int" (numeric Fun.id)
  |> register ~from:"year" ~into:"float" (numeric Fun.id)
  |> register ~from:"mm" ~into:"cm" (numeric (fun x -> x /. 10.))
  |> register ~from:"cm" ~into:"m" (numeric (fun x -> x /. 100.))
  |> register ~from:"mm" ~into:"m" (numeric (fun x -> x /. 1000.))
