(* A pipelined client connection: requests are written as soon as they are
   due, whatever is still outstanding, and responses are matched back by
   their echoed [id]. [Toss_server.Client] is one-request-one-response, so
   an open-loop generator needs its own framing loop over the same codec. *)

module P = Toss_server.Protocol
module T = Toss_server.Transport

type t = {
  fd : Unix.file_descr;
  codec : P.codec;
  wlock : Mutex.t;
  mutable acc : string;  (** received bytes not yet framed *)
  outstanding : int Atomic.t;
}

let connect ~codec addr =
  match T.parse addr with
  | Error e -> Error e
  | Ok a -> (
      match T.connect ~retry_ms:10_000 a with
      | Error e -> Error e
      | Ok fd ->
          if codec = P.Binary then
            ignore (Unix.write_substring fd (String.make 1 P.binary_magic) 0 1);
          Ok { fd; codec; wlock = Mutex.create (); acc = ""; outstanding = Atomic.make 0 })

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let encode codec env =
  match codec with
  | P.Json -> P.request_to_line env ^ "\n"
  | P.Binary -> P.encode_frame (P.request_to_json env)

let send t env =
  let s = encode t.codec env in
  Mutex.lock t.wlock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.wlock)
    (fun () ->
      let rec go off =
        if off < String.length s then
          go (off + Unix.write_substring t.fd s off (String.length s - off))
      in
      go 0;
      Atomic.incr t.outstanding)

(* Splits whole messages off the front of [acc]; each is returned raw, in
   its wire form (a JSON line without its newline, or a whole frame). *)
let frames t =
  let rec go acc =
    match t.codec with
    | P.Json -> (
        match String.index_opt t.acc '\n' with
        | None -> List.rev acc
        | Some i ->
            let line = String.sub t.acc 0 i in
            t.acc <- String.sub t.acc (i + 1) (String.length t.acc - i - 1);
            go (line :: acc))
    | P.Binary -> (
        match P.frame_length t.acc with
        | Ok len when String.length t.acc >= 4 + len ->
            let frame = String.sub t.acc 0 (4 + len) in
            t.acc <- String.sub t.acc (4 + len) (String.length t.acc - 4 - len);
            go (frame :: acc)
        | _ -> List.rev acc)
  in
  go []

let chunk = Bytes.create 65536

(* Reads what the socket has now; [None] at end of stream. Call only when
   [select] reports the descriptor readable. *)
let read_ready t =
  match Unix.read t.fd chunk 0 (Bytes.length chunk) with
  | 0 -> None
  | n ->
      t.acc <- t.acc ^ Bytes.sub_string chunk 0 n;
      let msgs = frames t in
      ignore (Atomic.fetch_and_add t.outstanding (- List.length msgs));
      Some msgs
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> None

let decode codec raw =
  match codec with
  | P.Json -> P.parse_response raw
  | P.Binary -> (
      match P.decode_frame raw with
      | Error e -> Error e.P.message
      | Ok v -> P.response_of_json v)

(* One request, waiting for its answer, on a connection with nothing else
   outstanding: set-up, and probes of server state. *)
let call t env =
  send t env;
  let rec wait () =
    match frames t with
    | raw :: _ ->
        Atomic.decr t.outstanding;
        decode t.codec raw
    | [] -> (
        match Unix.read t.fd chunk 0 (Bytes.length chunk) with
        | 0 -> Error "connection closed"
        | n ->
            t.acc <- t.acc ^ Bytes.sub_string chunk 0 n;
            wait ())
  in
  wait ()
