(** Segmented write-ahead log.

    Records are opaque byte strings in the {!Record} format, appended
    to segment files named [wal-<start-lsn>.seg]. LSNs are dense:
    record [n] of the log has LSN [n], and a segment's name carries
    the LSN of its first record.

    The reader never raises on damaged logs. Every kind of damage
    {!Record.parse} reports means the same thing — the process died
    mid-write — and everything before the first bad record is trusted
    while nothing after it is. *)

(** {2 Writing} *)

type writer

val create :
  dir:string -> ?segment_bytes:int -> ?start_lsn:int -> unit -> writer
(** Open a fresh segment at [start_lsn] (default 0), truncating any
    existing segment of that name. [segment_bytes] (default 1 MiB)
    bounds segment size. Creates [dir] if missing. *)

val append : writer -> string -> unit
(** Frame one record and flush it to the file. *)

val flush : writer -> unit
(** Push all buffered frames to the file. After [flush] returns, every
    appended record survives a crash. *)

val rotate : writer -> unit
(** Flush, then start a new segment (no-op on an empty segment). *)

val close : writer -> unit
val lsn : writer -> int
(** LSN the next appended record will get. *)

(** {2 Reading} *)

val replay : dir:string -> from:int -> (string -> unit) -> int * string option
(** [replay ~dir ~from f] gives the payload of every record with
    LSN >= [from] to [f], in LSN order, and returns how many [f]
    accepted and the reason replay stopped early, if it did: a torn
    tail, a checksum mismatch, a missing segment, or the first record
    [f] raised on (nothing past it is given to [f]). Damage strictly
    below [from] is ignored as long as the records at and past [from]
    are reachable. *)

(** {2 Maintenance} *)

val truncate_after : dir:string -> lsn:int -> unit
(** Physically discard every record with LSN >= [lsn], rewriting the
    containing segment atomically. Used when resuming an import from a
    checkpoint: the suffix will be regenerated deterministically. *)

val drop_below : dir:string -> lsn:int -> unit
(** Delete segments wholly below [lsn] (log compaction after a
    checkpoint). Only removes a segment when its successor's start
    proves every contained record precedes [lsn]. *)

(**/**)

val read : dir:string -> from:int -> (int * string) list * string option
(** {!replay} collecting [(lsn, payload)] pairs. Exposed for tests. *)

val segment_files : dir:string -> (int * string) list
(** Segments as [(start_lsn, path)], ascending. Exposed for tests. *)

val segment_start : string -> int option
(** Start LSN encoded in a segment file name, [None] for other names. *)

type parsed = { ps_records : (int * string) list; ps_torn : string option }

val parse_segment : start:int -> string -> parsed
(** Parse raw segment bytes. Exposed for tests. *)
