module J = Toss_json

type read =
  | Msg of J.t
  | Eof
  | Corrupt of Protocol.error
  | Broken of Protocol.error

type reader = {
  ic : in_channel;
  mutable codec : Protocol.codec option;  (** [None] until the first byte *)
}

let reader ic = { ic; codec = None }
let codec r = Option.value r.codec ~default:Protocol.Json

let read_json_value line =
  match J.parse line with
  | Ok v -> Msg v
  | Error msg -> Corrupt (Protocol.error Protocol.Parse_error msg)

let rec read_json ic =
  match input_line ic with
  | exception (End_of_file | Sys_error _) -> Eof
  | line when String.trim line = "" -> read_json ic
  | line -> read_json_value line

(* One frame: 4 header bytes, then exactly the announced payload. EOF
   cleanly between frames is [Eof]; EOF inside a frame is a truncation
   — the stream can never resync, so it is [Broken]. A payload that
   arrived whole but does not decode leaves the framing intact:
   [Corrupt], answerable and recoverable. *)
let read_binary ic =
  match input_char ic with
  | exception (End_of_file | Sys_error _) -> Eof
  | b0 -> (
      let header = Bytes.create 4 in
      Bytes.set header 0 b0;
      match really_input ic header 1 3 with
      | exception (End_of_file | Sys_error _) ->
          Broken (Protocol.error Protocol.Parse_error "truncated frame header")
      | () -> (
          match Protocol.frame_length (Bytes.to_string header) with
          | Error e -> Broken e
          | Ok n -> (
              let payload = Bytes.create n in
              match really_input ic payload 0 n with
              | exception (End_of_file | Sys_error _) ->
                  Broken
                    (Protocol.error Protocol.Parse_error
                       (Printf.sprintf
                          "truncated frame: header says %d bytes" n))
              | () -> (
                  match Protocol.decode_binary (Bytes.to_string payload) with
                  | Ok v -> Msg v
                  | Error e -> Corrupt e))))

let read_known codec ic =
  match codec with
  | Protocol.Json -> read_json ic
  | Protocol.Binary -> read_binary ic

(* First read of a connection: the first byte picks the codec. The
   magic byte opens a binary stream; anything else is the first byte of
   the first JSON line (read the rest of the line and parse the
   whole). *)
let negotiate r =
  match input_char r.ic with
  | exception (End_of_file | Sys_error _) -> Eof
  | c when c = Protocol.binary_magic ->
      r.codec <- Some Protocol.Binary;
      read_binary r.ic
  | c ->
      r.codec <- Some Protocol.Json;
      if c = '\n' then read_json r.ic
      else
        let rest =
          match input_line r.ic with
          | exception (End_of_file | Sys_error _) -> ""
          | l -> l
        in
        let line = String.make 1 c ^ rest in
        if String.trim line = "" then read_json r.ic
        else read_json_value line

let read r =
  match r.codec with
  | None -> negotiate r
  | Some codec -> read_known codec r.ic

let write codec oc v =
  match codec with
  | Protocol.Json ->
      J.output oc v;
      output_char oc '\n'
  | Protocol.Binary -> output_string oc (Protocol.encode_frame v)

let open_binary oc = output_char oc Protocol.binary_magic
