(** The record format of every framed byte stream in LockDoc:
    [len:int32 LE][crc32:int32 LE][payload].

    Packed trace segments (LDOCBIN1, [Lockdoc_stream.Codec]), durable
    WAL segments ({!Wal}), snapshots ({!Snapshot}) and serve wire
    frames ([Lockdoc_serve.Frame]) are all records. This module is the
    only one that writes or reads the header; each caller keeps only
    its own policy for damage and its own message texts. *)

val header_bytes : int
(** 8: the [len] and [crc] fields. *)

val max_len : int
(** 64 MiB: the longest payload a header is believed about. A larger
    length field is damage, not a record. *)

val crc32 : string -> int
(** CRC-32 (IEEE 802.3). [crc32 "123456789" = 0xCBF43926]. *)

(** {2 Writing} *)

val header : string -> string
(** The header of the record holding this payload; the record is the
    header followed by the payload. No length check: a snapshot may
    exceed {!max_len}. *)

val add : Buffer.t -> string -> unit
(** Append the record holding this payload. *)

(** {2 Reading} *)

type parsed =
  | Record of { off : int; len : int }
      (** A whole record whose checksum matches: [len] payload bytes
          at [off]. *)
  | Short_header  (** fewer than {!header_bytes} bytes left *)
  | Short_payload of { have : int; want : int }
      (** the header promises [want] payload bytes, [have] are present *)
  | Bad_length of int  (** a negative length, or one above the ceiling *)
  | Bad_crc of { len : int }
      (** a whole record of [len] payload bytes whose checksum does not
          match *)

val parse : ?max_len:int -> string -> pos:int -> lim:int -> parsed
(** Classify the record that starts at [pos], reading no byte at or
    past [lim]. The checksum is computed over the bytes where they
    sit. [max_len] (default {!max_len}) is the length ceiling; the
    length check comes before the short-payload check. *)

(** Incremental reading of a record stream fed in arbitrary chunks. *)
module Reader : sig
  type t

  val create : ?max_len:int -> unit -> t
  (** An empty reader; [max_len] is passed to every {!parse}. *)

  val feed : t -> ?off:int -> ?len:int -> string -> unit
  (** Append received bytes. When nothing is pending the string is
      kept and parsed where it sits, not copied. *)

  val next : t -> string * parsed
  (** Parse the record at the head of the pending bytes. [Record] and
      [Bad_crc] are consumed; their offsets index the returned string,
      which stays valid after later calls. Every other result consumes
      nothing; [Short_header] and [Short_payload] mean "feed more". *)

  val buffered : t -> int
  (** Bytes fed and not yet consumed. *)
end
