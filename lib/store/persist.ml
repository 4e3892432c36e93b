module Parser = Toss_xml.Parser
module Printer = Toss_xml.Printer

let ensure_dir dir = if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let doc_filename id = Printf.sprintf "%06d.xml" id

let write_doc ~path tree =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Printer.to_string ~decl:true tree))

let append_document ~dir ~collection id tree =
  ensure_dir dir;
  let coll_dir = Filename.concat dir collection in
  ensure_dir coll_dir;
  write_doc ~path:(Filename.concat coll_dir (doc_filename id)) tree

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Every file of the directory is attempted even after a failure, so one
   corrupt document reports alongside every other corrupt document
   instead of masking them; the collection is only returned when all of
   them load (a partial collection would silently renumber ids). *)
let load_collection ~name dir =
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".xml")
    |> List.sort String.compare
  in
  let collection = Collection.create name in
  let errors =
    List.filter_map
      (fun file ->
        let path = Filename.concat dir file in
        match Collection.add_xml collection (read_file path) with
        | Ok _ -> None
        | Error e -> Some (Format.asprintf "%s: %a" path Parser.pp_error e))
      files
  in
  match errors with
  | [] -> Ok collection
  | errors -> Error (String.concat "\n" errors)

(* Like [load_collection], keeps going past a failing collection and
   aggregates every error; one bad collection no longer hides problems
   in its siblings. *)
let load_database ~dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    Error (Printf.sprintf "%s: not a directory" dir)
  else begin
    let subdirs =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun d -> Sys.is_directory (Filename.concat dir d))
      |> List.sort String.compare
    in
    let db = Database.create () in
    let errors =
      List.filter_map
        (fun name ->
          match load_collection ~name (Filename.concat dir name) with
          | Ok collection ->
              Database.register db collection;
              None
          | Error e -> Some e)
        subdirs
    in
    match errors with [] -> Ok db | errors -> Error (String.concat "\n" errors)
  end
