type t = { lock : Mutex.t; collections : (string, Collection.t) Hashtbl.t }

let create () = { lock = Mutex.create (); collections = Hashtbl.create 8 }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let create_collection ?max_bytes t name =
  locked t (fun () ->
      if Hashtbl.mem t.collections name then
        invalid_arg
          (Printf.sprintf "Database.create_collection: %S already exists" name);
      let c = Collection.create ?max_bytes name in
      Hashtbl.add t.collections name c;
      c)

let register t c =
  let name = Collection.name c in
  locked t (fun () ->
      if Hashtbl.mem t.collections name then
        invalid_arg (Printf.sprintf "Database.register: %S already exists" name);
      Hashtbl.add t.collections name c)

let collection t name = locked t (fun () -> Hashtbl.find_opt t.collections name)

let collection_exn t name =
  match collection t name with Some c -> c | None -> raise Not_found

let collection_names t =
  locked t (fun () ->
      Hashtbl.fold (fun name _ acc -> name :: acc) t.collections [])
  |> List.sort String.compare

let snapshot t =
  locked t (fun () ->
      Hashtbl.fold
        (fun name c acc -> (name, Collection.snapshot c) :: acc)
        t.collections [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
