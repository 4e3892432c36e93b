module J = Toss_json

type error_code =
  | Bad_request
  | Parse_error
  | Unknown_collection
  | Query_error
  | Overloaded
  | Deadline_exceeded
  | Shutting_down
  | Shard_unavailable
  | Internal

type error = { code : error_code; message : string }

let code_name = function
  | Bad_request -> "bad_request"
  | Parse_error -> "parse_error"
  | Unknown_collection -> "unknown_collection"
  | Query_error -> "query_error"
  | Overloaded -> "overloaded"
  | Deadline_exceeded -> "deadline_exceeded"
  | Shutting_down -> "shutting_down"
  | Shard_unavailable -> "shard_unavailable"
  | Internal -> "internal"

let code_of_name = function
  | "bad_request" -> Some Bad_request
  | "parse_error" -> Some Parse_error
  | "unknown_collection" -> Some Unknown_collection
  | "query_error" -> Some Query_error
  | "overloaded" -> Some Overloaded
  | "deadline_exceeded" -> Some Deadline_exceeded
  | "shutting_down" -> Some Shutting_down
  | "shard_unavailable" -> Some Shard_unavailable
  | "internal" -> Some Internal
  | _ -> None

let error code message = { code; message }

type request =
  | Ping
  | Insert of { collection : string; xml : string }
  | Query of {
      collection : string;
      tql : string;
      mode : Toss_core.Executor.mode;
      cache : bool;
    }
  | Join of {
      left : string;
      right : string;
      tql : string;
      mode : Toss_core.Executor.mode;
    }
  | Explain of {
      collection : string;
      tql : string;
      mode : Toss_core.Executor.mode;
    }
  | Stats
  | Metrics
  | Shutdown

let op_name = function
  | Ping -> "ping"
  | Insert _ -> "insert"
  | Query _ -> "query"
  | Join _ -> "join"
  | Explain _ -> "explain"
  | Stats -> "stats"
  | Metrics -> "metrics"
  | Shutdown -> "shutdown"

type envelope = {
  id : int option;
  deadline_ms : int option;
  trace_id : string option;
  allow_partial : bool;
  request : request;
}

let mode_name = function Toss_core.Executor.Tax -> "tax" | Toss -> "toss"

let mode_of_name = function
  | "tax" -> Some Toss_core.Executor.Tax
  | "toss" -> Some Toss_core.Executor.Toss
  | _ -> None

(* Field decoding helpers: [required] distinguishes a missing member
   from one of the wrong kind, so the error message says which. *)

let required obj field conv kind =
  match J.member field obj with
  | None -> Error (error Bad_request (Printf.sprintf "missing field %S" field))
  | Some v -> (
      match conv v with
      | Some x -> Ok x
      | None ->
          Error
            (error Bad_request
               (Printf.sprintf "field %S must be a %s" field kind)))

let optional obj field conv kind ~default =
  match J.member field obj with
  | None -> Ok default
  | Some v -> (
      match conv v with
      | Some x -> Ok x
      | None ->
          Error
            (error Bad_request
               (Printf.sprintf "field %S must be a %s" field kind)))

let ( let* ) = Result.bind

let mode_field obj =
  let* name = optional obj "mode" J.to_str "string" ~default:"toss" in
  match mode_of_name name with
  | Some m -> Ok m
  | None ->
      Error
        (error Bad_request
           (Printf.sprintf "field \"mode\" must be \"tax\" or \"toss\" (got %S)"
              name))

let decode_request obj op =
  match op with
  | "ping" -> Ok Ping
  | "stats" -> Ok Stats
  | "metrics" -> Ok Metrics
  | "shutdown" -> Ok Shutdown
  | "insert" ->
      let* collection = required obj "collection" J.to_str "string" in
      let* xml = required obj "xml" J.to_str "string" in
      Ok (Insert { collection; xml })
  | "query" ->
      let* collection = required obj "collection" J.to_str "string" in
      let* tql = required obj "tql" J.to_str "string" in
      let* mode = mode_field obj in
      let* cache = optional obj "cache" J.to_bool "boolean" ~default:true in
      Ok (Query { collection; tql; mode; cache })
  | "join" ->
      let* left = required obj "left" J.to_str "string" in
      let* right = required obj "right" J.to_str "string" in
      let* tql = required obj "tql" J.to_str "string" in
      let* mode = mode_field obj in
      Ok (Join { left; right; tql; mode })
  | "explain" ->
      let* collection = required obj "collection" J.to_str "string" in
      let* tql = required obj "tql" J.to_str "string" in
      let* mode = mode_field obj in
      Ok (Explain { collection; tql; mode })
  | other -> Error (error Bad_request (Printf.sprintf "unknown op %S" other))

let request_of_json = function
  | J.Obj _ as obj ->
      let* op = required obj "op" J.to_str "string" in
      let* id = optional obj "id" (fun v -> Option.map Option.some (J.to_int v)) "number" ~default:None in
      let* deadline_ms =
        optional obj "deadline_ms"
          (fun v -> Option.map Option.some (J.to_int v))
          "number" ~default:None
      in
      let* trace_id =
        optional obj "trace_id"
          (fun v -> Option.map Option.some (J.to_str v))
          "string" ~default:None
      in
      let* () =
        match trace_id with
        | Some t when not (Toss_obs.Trace.is_valid t) ->
            Error
              (error Bad_request
                 "field \"trace_id\" must be 1-128 printable ASCII characters")
        | _ -> Ok ()
      in
      let* allow_partial =
        optional obj "allow_partial" J.to_bool "boolean" ~default:false
      in
      let* request = decode_request obj op in
      Ok { id; deadline_ms; trace_id; allow_partial; request }
  | _ -> Error (error Bad_request "request must be a JSON object")

let parse_request line =
  match J.parse line with
  | Error msg -> Error (error Parse_error msg)
  | Ok v -> request_of_json v

let request_to_json { id; deadline_ms; trace_id; allow_partial; request } =
  let base = [ ("op", J.Str (op_name request)) ] in
  let id_field =
    match id with Some i -> [ ("id", J.Num (float_of_int i)) ] | None -> []
  in
  let deadline_field =
    match deadline_ms with
    | Some ms -> [ ("deadline_ms", J.Num (float_of_int ms)) ]
    | None -> []
  in
  let trace_field =
    match trace_id with Some t -> [ ("trace_id", J.Str t) ] | None -> []
  in
  let partial_field =
    if allow_partial then [ ("allow_partial", J.Bool true) ] else []
  in
  let op_fields =
    match request with
    | Ping | Stats | Metrics | Shutdown -> []
    | Insert { collection; xml } ->
        [ ("collection", J.Str collection); ("xml", J.Str xml) ]
    | Query { collection; tql; mode; cache } ->
        [
          ("collection", J.Str collection);
          ("tql", J.Str tql);
          ("mode", J.Str (mode_name mode));
          ("cache", J.Bool cache);
        ]
    | Join { left; right; tql; mode } ->
        [
          ("left", J.Str left);
          ("right", J.Str right);
          ("tql", J.Str tql);
          ("mode", J.Str (mode_name mode));
        ]
    | Explain { collection; tql; mode } ->
        [
          ("collection", J.Str collection);
          ("tql", J.Str tql);
          ("mode", J.Str (mode_name mode));
        ]
  in
  J.Obj (base @ id_field @ deadline_field @ trace_field @ partial_field @ op_fields)

let request_to_line env = J.to_string (request_to_json env)

type response = {
  rid : int option;
  rtrace_id : string option;
  server_ms : float option;
  queue_ms : float option;
  body : (J.t, error) result;
}

let response ?id ?trace_id ?server_ms ?queue_ms body =
  { rid = id; rtrace_id = trace_id; server_ms; queue_ms; body }

let response_to_json { rid; rtrace_id; server_ms; queue_ms; body } =
  let id_field =
    match rid with Some i -> [ ("id", J.Num (float_of_int i)) ] | None -> []
  in
  let trace_field =
    match rtrace_id with Some t -> [ ("trace_id", J.Str t) ] | None -> []
  in
  let num_field name = function
    | Some v -> [ (name, J.Num v) ]
    | None -> []
  in
  let rest =
    match body with
    | Ok result -> [ ("ok", J.Bool true); ("result", result) ]
    | Error { code; message } ->
        [
          ("ok", J.Bool false);
          ( "error",
            J.Obj
              [ ("code", J.Str (code_name code)); ("message", J.Str message) ]
          );
        ]
  in
  J.Obj
    (id_field @ trace_field @ rest
    @ num_field "server_ms" server_ms
    @ num_field "queue_ms" queue_ms)

let response_to_line r = J.to_string (response_to_json r)

let response_of_json obj =
  let rid = Option.bind (J.member "id" obj) J.to_int in
  let rtrace_id = Option.bind (J.member "trace_id" obj) J.to_str in
  let server_ms = Option.bind (J.member "server_ms" obj) J.to_num in
  let queue_ms = Option.bind (J.member "queue_ms" obj) J.to_num in
  let make body = Ok { rid; rtrace_id; server_ms; queue_ms; body } in
  match Option.bind (J.member "ok" obj) J.to_bool with
  | Some true -> (
      match J.member "result" obj with
      | Some result -> make (Ok result)
      | None -> Error "response has ok:true but no result")
  | Some false -> (
      match J.member "error" obj with
      | Some err ->
          let message =
            Option.value ~default:""
              (Option.bind (J.member "message" err) J.to_str)
          in
          let code =
            match
              Option.bind
                (Option.bind (J.member "code" err) J.to_str)
                code_of_name
            with
            | Some c -> c
            | None -> Bad_request
          in
          make (Error { code; message })
      | None -> Error "response has ok:false but no error")
  | _ -> Error "response lacks a boolean ok field"

let parse_response line =
  match J.parse line with
  | Error msg -> Error msg
  | Ok obj -> response_of_json obj

(* ------------------------------------------------------------------ *)
(* Binary codec                                                         *)
(* ------------------------------------------------------------------ *)

type codec = Json | Binary

let codec_name = function Json -> "json" | Binary -> "binary"

let binary_magic = '\xB1'
let max_frame = 64 * 1024 * 1024

(* One byte of tag, then the value: 'N' null, 'T'/'F' booleans, 'D' an
   IEEE-754 double (8 bytes, big-endian), 'S' a string (u32 length +
   bytes), 'A' an array (u32 count + values), 'O' an object (u32 count
   + (u32 key length + key bytes + value) pairs). All lengths are
   big-endian and bounded by [max_frame], so a hostile length can cost
   at most one frame's worth of memory. *)

let add_len buf n = Buffer.add_int32_be buf (Int32.of_int n)

let rec encode_value buf = function
  | J.Null -> Buffer.add_char buf 'N'
  | J.Bool true -> Buffer.add_char buf 'T'
  | J.Bool false -> Buffer.add_char buf 'F'
  | J.Num f ->
      Buffer.add_char buf 'D';
      Buffer.add_int64_be buf (Int64.bits_of_float f)
  | J.Str s ->
      Buffer.add_char buf 'S';
      add_len buf (String.length s);
      Buffer.add_string buf s
  | J.Arr items ->
      Buffer.add_char buf 'A';
      add_len buf (List.length items);
      List.iter (encode_value buf) items
  | J.Obj fields ->
      Buffer.add_char buf 'O';
      add_len buf (List.length fields);
      List.iter
        (fun (k, v) ->
          add_len buf (String.length k);
          Buffer.add_string buf k;
          encode_value buf v)
        fields

let encode_binary v =
  let buf = Buffer.create 256 in
  encode_value buf v;
  Buffer.contents buf

let truncated = error Parse_error "truncated binary value"

let decode_binary s =
  let len = String.length s in
  let pos = ref 0 in
  let exception Bad of error in
  let fail e = raise (Bad e) in
  let need n = if len - !pos < n then fail truncated in
  let read_len () =
    need 4;
    let n = Int32.to_int (String.get_int32_be s !pos) in
    pos := !pos + 4;
    if n < 0 || n > max_frame then
      fail (error Parse_error (Printf.sprintf "binary length %d out of range" n));
    n
  in
  let read_string () =
    let n = read_len () in
    need n;
    let str = String.sub s !pos n in
    pos := !pos + n;
    str
  in
  let rec value depth =
    if depth > J.max_depth then
      fail (error Parse_error "binary value nested too deeply");
    need 1;
    let tag = s.[!pos] in
    incr pos;
    match tag with
    | 'N' -> J.Null
    | 'T' -> J.Bool true
    | 'F' -> J.Bool false
    | 'D' ->
        need 8;
        let bits = String.get_int64_be s !pos in
        pos := !pos + 8;
        J.Num (Int64.float_of_bits bits)
    | 'S' -> J.Str (read_string ())
    | 'A' ->
        let n = read_len () in
        J.Arr (List.init n (fun _ -> value (depth + 1)))
    | 'O' ->
        let n = read_len () in
        J.Obj
          (List.init n (fun _ ->
               let k = read_string () in
               (k, value (depth + 1))))
    | c -> fail (error Parse_error (Printf.sprintf "unknown binary tag %C" c))
  in
  match value 0 with
  | v ->
      if !pos <> len then
        Error (error Parse_error "trailing bytes after binary value")
      else Ok v
  | exception Bad e -> Error e

let encode_frame v =
  let payload = encode_binary v in
  let buf = Buffer.create (String.length payload + 4) in
  add_len buf (String.length payload);
  Buffer.add_string buf payload;
  Buffer.contents buf

let frame_length header =
  if String.length header < 4 then
    Error (error Parse_error "truncated frame: missing length header")
  else
    let n = Int32.to_int (String.get_int32_be header 0) in
    if n < 0 || n > max_frame then
      Error
        (error Parse_error
           (Printf.sprintf "frame length %d exceeds the %d-byte limit" n
              max_frame))
    else Ok n

let decode_frame s =
  match frame_length s with
  | Error e -> Error e
  | Ok n ->
      let body = String.length s - 4 in
      if body < n then
        Error
          (error Parse_error
             (Printf.sprintf "truncated frame: header says %d bytes, got %d" n
                body))
      else if body > n then
        Error (error Parse_error "trailing bytes after frame")
      else decode_binary (String.sub s 4 n)
