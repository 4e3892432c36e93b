type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Fail of string

let max_depth = 512

let fail pos msg = raise (Fail (Printf.sprintf "%s at offset %d" msg pos))

(* Recursive descent over [s] with a mutable cursor. *)
let parse_value s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some got when got = c -> advance ()
    | _ -> fail !pos (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    let w = String.length word in
    if !pos + w <= n && String.sub s !pos w = word then begin
      pos := !pos + w;
      value
    end
    else fail !pos (Printf.sprintf "expected %s" word)
  in
  (* Encode a decoded \uXXXX code point as UTF-8 bytes. *)
  let add_utf8 buf cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xc0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xe0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xf0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
    end
  in
  (* Exactly four hex digits — [int_of_string "0x…"] would also admit
     OCaml numeric-literal underscores and signs. *)
  let read_hex4 () =
    if !pos + 4 > n then fail !pos "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match s.[!pos] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail !pos "bad \\u escape"
      in
      v := (!v lsl 4) lor d;
      advance ()
    done;
    !v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail !pos "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (if !pos >= n then fail !pos "unterminated escape"
             else
               match s.[!pos] with
               | '"' -> Buffer.add_char buf '"'; advance ()
               | '\\' -> Buffer.add_char buf '\\'; advance ()
               | '/' -> Buffer.add_char buf '/'; advance ()
               | 'b' -> Buffer.add_char buf '\b'; advance ()
               | 'f' -> Buffer.add_char buf '\012'; advance ()
               | 'n' -> Buffer.add_char buf '\n'; advance ()
               | 'r' -> Buffer.add_char buf '\r'; advance ()
               | 't' -> Buffer.add_char buf '\t'; advance ()
               | 'u' ->
                   advance ();
                   let start = !pos in
                   let cp = read_hex4 () in
                   let cp =
                     (* UTF-16 surrogate halves are not code points: a
                        high surrogate must combine with the low
                        surrogate escaped right after it, anything else
                        would decode to invalid UTF-8 (CESU-8). *)
                     if cp >= 0xd800 && cp <= 0xdbff then begin
                       if
                         not
                           (!pos + 2 <= n
                           && s.[!pos] = '\\'
                           && s.[!pos + 1] = 'u')
                       then fail start "unpaired high surrogate";
                       pos := !pos + 2;
                       let lo = read_hex4 () in
                       if lo >= 0xdc00 && lo <= 0xdfff then
                         0x10000 + ((cp - 0xd800) lsl 10) + (lo - 0xdc00)
                       else fail start "unpaired high surrogate"
                     end
                     else if cp >= 0xdc00 && cp <= 0xdfff then
                       fail start "unpaired low surrogate"
                     else cp
                   in
                   add_utf8 buf cp
               | c -> fail !pos (Printf.sprintf "bad escape %C" c));
            go ()
        | c ->
            Buffer.add_char buf c;
            advance ();
            go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let number_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && number_char s.[!pos] do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail start "bad number"
  in
  let rec value depth =
    if depth > max_depth then fail !pos "value nested too deeply";
    skip_ws ();
    match peek () with
    | None -> fail !pos "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec items acc =
            let v = value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail !pos "expected ',' or ']'"
          in
          Arr (items [])
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let parse_member () =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            (key, value (depth + 1))
          in
          let rec members acc =
            let kv = parse_member () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members (kv :: acc)
            | Some '}' ->
                advance ();
                List.rev (kv :: acc)
            | _ -> fail !pos "expected ',' or '}'"
          in
          Obj (members [])
        end
    | Some _ -> Num (parse_number ())
  in
  let v = value 0 in
  skip_ws ();
  if !pos < n then fail !pos "trailing input after value";
  v

let parse s =
  match parse_value s with v -> Ok v | exception Fail msg -> Error msg

let parse_exn s =
  match parse s with
  | Ok v -> v
  | Error msg -> invalid_arg ("Toss_json.parse: " ^ msg)

let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None
let to_list = function Arr items -> Some items | _ -> None
let to_num = function Num f -> Some f | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_int = function Num f -> Some (int_of_float f) | _ -> None

(* ------------------------------ writer ---------------------------- *)

(* The writer's one walk and one escape, over any byte sink: [str]
   appends a string, [sub] a substring. A string's bytes that need no
   escape are copied as whole runs, so text without quotes, backslashes
   or control characters costs one [sub] call. *)
type sink = { str : string -> unit; sub : string -> int -> int -> unit }

let escapes =
  Array.init 0x20 (fun c ->
      match Char.chr c with
      | '\n' -> "\\n"
      | '\r' -> "\\r"
      | '\t' -> "\\t"
      | _ -> Printf.sprintf "\\u%04x" c)

let escape_to sink s =
  let n = String.length s in
  let run = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || c < ' ' then begin
      if i > !run then sink.sub s !run (i - !run);
      sink.str
        (match c with '"' -> "\\\"" | '\\' -> "\\\\" | c -> escapes.(Char.code c));
      run := i + 1
    end
  done;
  if !run = 0 then sink.str s else if n > !run then sink.sub s !run (n - !run)

(* Shortest rendering that still round-trips: integral floats print as
   integers, others at increasing precision until re-parsing recovers
   the same bits. JSON has no non-finite numbers; render those as null
   rather than emit something no reader accepts. *)
let number_to_string f =
  if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let write sink v =
  let rec go = function
    | Null -> sink.str "null"
    | Bool b -> sink.str (if b then "true" else "false")
    | Num f -> sink.str (number_to_string f)
    | Str s ->
        sink.str "\"";
        escape_to sink s;
        sink.str "\""
    | Arr items ->
        sink.str "[";
        List.iteri
          (fun i item ->
            if i > 0 then sink.str ",";
            go item)
          items;
        sink.str "]"
    | Obj kvs ->
        sink.str "{";
        List.iteri
          (fun i (k, item) ->
            sink.str (if i > 0 then ",\"" else "\"");
            escape_to sink k;
            sink.str "\":";
            go item)
          kvs;
        sink.str "}"
  in
  go v

let to_string v =
  let buf = Buffer.create 1024 in
  write { str = Buffer.add_string buf; sub = Buffer.add_substring buf } v;
  Buffer.contents buf

let output oc v = write { str = output_string oc; sub = output_substring oc } v
