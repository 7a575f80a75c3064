(* Serve wire frames: one {!Lockdoc_db.Record} per message. A WAL
   segment and a serve byte stream are therefore interchangeable, and
   the byte-dribbling differential test feeds WAL segment bytes through
   this decoder one byte at a time and compares against
   [Wal.parse_segment].

   Unlike the WAL reader — which treats damage as a torn tail and
   trusts the prefix — a live connection cannot seek past damage: a
   checksum mismatch or absurd length means the rest of the stream
   cannot be re-synchronised, so the decoder latches into [Corrupt] and
   stays there. The session layer turns that into a structured error
   and a connection close; the client reconnects and resumes from its
   durable checkpoint. *)

module Record = Lockdoc_db.Record

let encode payload =
  if String.length payload > Record.max_len then
    invalid_arg "Frame.encode: payload too large";
  Record.header payload ^ payload

type decoder = {
  mutable r : Record.Reader.t;
  mutable consumed : int;  (* stream offset of the head, for messages *)
  mutable corrupt : string option;
}

let decoder ?max_frame () =
  let r = Record.Reader.create ?max_len:max_frame () in
  { r; consumed = 0; corrupt = None }

let buffered d = Record.Reader.buffered d.r

let feed d ?off ?len s =
  if d.corrupt = None then Record.Reader.feed d.r ?off ?len s

type next = Frame of string | Awaiting | Corrupt of string

let fail d reason =
  d.corrupt <- Some reason;
  (* Drop the buffer: nothing past the damage can be trusted, and a
     latched decoder must not hold client bytes alive. *)
  d.r <- Record.Reader.create ();
  Corrupt reason

let next d =
  match d.corrupt with
  | Some reason -> Corrupt reason
  | None -> (
      match Record.Reader.next d.r with
      | s, Record.Record { off; len } ->
          d.consumed <- d.consumed + Record.header_bytes + len;
          Frame (String.sub s off len)
      | _, (Record.Short_header | Record.Short_payload _) -> Awaiting
      | _, Record.Bad_length len ->
          fail d
            (Printf.sprintf "corrupt length %d at offset %d" len d.consumed)
      | _, Record.Bad_crc _ ->
          fail d (Printf.sprintf "checksum mismatch at offset %d" d.consumed))

let is_corrupt d = d.corrupt <> None
