(** Incremental codec for the serve wire protocol.

    A frame is one {!Lockdoc_db.Record}. The decoder accepts bytes in
    arbitrary chunks — including one byte at a time across the
    header — and yields complete verified payloads.

    Damage (an absurd length, a checksum mismatch) latches the decoder
    into a permanent [Corrupt] state: a live byte stream, unlike a WAL
    file, cannot be re-synchronised past damage. The session layer
    closes the connection with a structured reason and lets the client
    resume from its durable checkpoint. *)

val encode : string -> string
(** Frame one payload. Raises [Invalid_argument] above
    {!Lockdoc_db.Record.max_len}. *)

type decoder

val decoder : ?max_frame:int -> unit -> decoder
(** Fresh decoder; [max_frame] lowers the length ceiling from
    {!Lockdoc_db.Record.max_len} (a server rejects frames its config
    does not allow before buffering them). *)

val feed : decoder -> ?off:int -> ?len:int -> string -> unit
(** Append received bytes. No-op once corrupt. *)

type next = Frame of string | Awaiting | Corrupt of string

val next : decoder -> next
(** Pop the next complete frame. [Awaiting] means feed more bytes;
    [Corrupt] is permanent and repeats on every call. *)

val buffered : decoder -> int
(** Unconsumed bytes held by the decoder (bounded by one frame plus one
    read chunk). *)

val is_corrupt : decoder -> bool
