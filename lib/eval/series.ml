type t = { name : string; columns : string list; rows : string list list }

let v ~name ~columns rows =
  if name = "" then invalid_arg "Series.v: empty name";
  let width = List.length columns in
  List.iteri
    (fun i row ->
      if List.length row <> width then
        invalid_arg
          (Printf.sprintf "Series.v: row %d has %d fields, header has %d" i
             (List.length row) width))
    rows;
  { name; columns; rows }

let escape_field f =
  let needs_quoting =
    String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') f
  in
  if not needs_quoting then f
  else begin
    let buf = Buffer.create (String.length f + 8) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      f;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end

let to_csv t =
  let line row = String.concat "," (List.map escape_field row) in
  String.concat "\n" (line t.columns :: List.map line t.rows) ^ "\n"

let ensure_dir dir = if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let save_csv ~dir t =
  ensure_dir dir;
  let path = Filename.concat dir (t.name ^ ".csv") in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_csv t));
  path

let gnuplot_script t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "set datafile separator ','\n\
        set key autotitle columnhead\n\
        set xlabel %S\n\
        set ylabel 'value'\n\
        set term pngcairo size 800,500\n\
        set output '%s.png'\n"
       (match t.columns with c :: _ -> c | [] -> "x")
       t.name);
  let n = List.length t.columns in
  let plots =
    List.init (max 0 (n - 1)) (fun i ->
        Printf.sprintf "'%s.csv' using 1:%d with linespoints" t.name (i + 2))
  in
  Buffer.add_string buf ("plot " ^ String.concat ", \\\n     " plots ^ "\n");
  Buffer.contents buf

let to_json ?metrics t =
  let module J = Toss_json in
  let strs l = J.Arr (List.map (fun s -> J.Str s) l) in
  J.Obj
    ([
       ("name", J.Str t.name);
       ("columns", strs t.columns);
       ("rows", J.Arr (List.map strs t.rows));
     ]
    @ match metrics with None -> [] | Some m -> [ ("metrics", m) ])

let save_json ~dir ?metrics t =
  ensure_dir dir;
  let path = Filename.concat dir (t.name ^ ".json") in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Toss_json.to_string (to_json ?metrics t)));
  path

let save_all ~dir ?metrics series =
  List.concat_map
    (fun t ->
      let csv = save_csv ~dir t in
      let gp = Filename.concat dir (t.name ^ ".gp") in
      let oc = open_out gp in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc (gnuplot_script t));
      let json = save_json ~dir ?metrics t in
      [ csv; gp; json ])
    series
