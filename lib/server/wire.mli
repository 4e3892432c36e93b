(** Codec-negotiated message IO over a connection — the streaming layer
    under {!Protocol}, shared by the server, the sharded router and the
    client.

    A connection speaks one codec, chosen by its first byte:
    {!Protocol.binary_magic} opens a binary framed stream, anything
    else is the first byte of a newline-delimited JSON stream (see
    {!Protocol}). {!reader} performs that negotiation lazily on the
    first {!read}; {!read_known} skips it when the codec is already
    known (the client chose it). *)

type read =
  | Msg of Toss_json.t  (** one decoded message *)
  | Eof  (** clean end of stream, between messages *)
  | Corrupt of Protocol.error
      (** the message was undecodable but the framing survived (a
          non-JSON line; a whole frame whose payload does not decode):
          answer with the typed [parse_error] and keep reading *)
  | Broken of Protocol.error
      (** the framing itself is lost (truncated frame, oversized
          length): answer and close — the stream cannot resync *)

type reader

val reader : in_channel -> reader

val codec : reader -> Protocol.codec
(** The negotiated codec; [Json] until the first byte arrives. *)

val read : reader -> read
(** Blocking read of the next message, negotiating the codec on the
    first call. *)

val read_known : Protocol.codec -> in_channel -> read
(** {!read} for a connection whose codec is fixed — the client side. *)

val write : Protocol.codec -> out_channel -> Toss_json.t -> unit
(** Writes one message (a JSON line or a binary frame). A JSON line is
    streamed into the channel ({!Toss_json.output}), never built as one
    string. Does not flush; the caller owns buffering and write
    locking. *)

val open_binary : out_channel -> unit
(** Writes the magic byte that opens a binary connection — a binary
    client calls this once before its first message. *)
