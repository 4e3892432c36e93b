module J = Toss_json

type t = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  codec : Protocol.codec;
}

type failure = Wire of Protocol.error | Transport of string

let failure_to_string = function
  | Wire e -> Printf.sprintf "%s: %s" (Protocol.code_name e.Protocol.code) e.Protocol.message
  | Transport msg -> Printf.sprintf "transport: %s" msg

let connect ?(codec = Protocol.Json) ?retry_ms socket =
  match Transport.parse socket with
  | Error msg -> Error msg
  | Ok addr -> (
      match Transport.connect ?retry_ms addr with
      | Error msg -> Error msg
      | Ok fd ->
          let oc = Unix.out_channel_of_descr fd in
          if codec = Protocol.Binary then Wire.open_binary oc;
          Ok { fd; ic = Unix.in_channel_of_descr fd; oc; codec })
let codec t = t.codec
let close t = try Unix.close t.fd with Unix.Unix_error (_, _, _) -> ()

let call_response t ?id ?deadline_ms ?trace_id ?(allow_partial = false) request
    =
  let env = { Protocol.id; deadline_ms; trace_id; allow_partial; request } in
  match
    Wire.write t.codec t.oc (Protocol.request_to_json env);
    flush t.oc;
    Wire.read_known t.codec t.ic
  with
  | exception Sys_error msg -> Error (Transport msg)
  | Wire.Eof -> Error (Transport "connection closed by server")
  | Wire.Corrupt e | Wire.Broken e ->
      Error (Transport ("bad response: " ^ e.Protocol.message))
  | Wire.Msg v -> (
      match Protocol.response_of_json v with
      | Error msg -> Error (Transport ("bad response: " ^ msg))
      | Ok resp -> Ok resp)

let call t ?id ?deadline_ms ?trace_id ?allow_partial request =
  match call_response t ?id ?deadline_ms ?trace_id ?allow_partial request with
  | Error f -> Error f
  | Ok { Protocol.body = Ok payload; _ } -> Ok payload
  | Ok { Protocol.body = Error e; _ } -> Error (Wire e)
