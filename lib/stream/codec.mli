(** The compact binary trace format ("LDOCBIN1").

    A packed trace is the 8-byte magic followed by segments, each one
    {!Lockdoc_db.Record}. A segment payload is a run of varint records:
    string-table entries (explicit ids, so a lost segment cannot shift
    later ids), layout rows, and events with delta-compressed pointers/lines and interned
    names. Delta registers reset at each segment boundary, so every
    segment decodes independently given the string table.

    The decoder is incremental (feed arbitrary chunks) and never trusts
    bytes past the first sign of damage inside a segment; in [Lenient]
    mode a corrupt segment is reported as a {!Lockdoc_trace.Diag.t} and
    skipped, and a torn tail is reported at {!finish} — the same
    contract as the text reader {!Lockdoc_trace.Trace.read_lines}. *)

val magic : string
(** 8 bytes, ["LDOCBIN1"]. *)

val is_binary : string -> bool
(** Does this byte string start with (a prefix of at least 4 bytes of)
    the magic? Used by the CLI to auto-detect packed traces. *)

val file_is_binary : string -> bool
(** {!is_binary} on the first bytes of a file; false on read errors. *)

(** {2 Encoding} *)

type encoder

val encoder : ?segment_bytes:int -> (string -> unit) -> encoder
(** [encoder emit] starts a stream: [emit] receives the magic
    immediately and one framed segment at each rotation.
    [segment_bytes] (default 64 KiB) bounds payload size; rotation
    happens at event boundaries only. *)

val add_layout : encoder -> Lockdoc_trace.Layout.t -> unit

val add_event : encoder -> Lockdoc_trace.Event.t -> unit

val close_encoder : encoder -> unit
(** Flush the final partial segment. The encoder must not be used
    afterwards. *)

val encode_trace : ?segment_bytes:int -> Lockdoc_trace.Trace.t -> string
(** Whole-trace convenience: layouts first, then every event. *)

(** {2 Decoding} *)

type decoder

val decoder :
  ?mode:Lockdoc_trace.Trace.mode -> ?file:string -> unit -> decoder
(** Fresh decoder. [Strict] (default) raises
    {!Lockdoc_trace.Trace.Invalid} at the first anomaly; [Lenient]
    collects diagnostics and keeps going. [file] labels diagnostics. *)

val feed : decoder -> string -> unit
(** Consume one chunk (any framing). Decoded events accumulate until
    drained with {!events}. *)

val events : decoder -> Lockdoc_trace.Event.t list
(** Drain the events decoded since the last call, in stream order. *)

val layouts : decoder -> Lockdoc_trace.Layout.t list
(** All layout rows seen so far, in stream order. *)

val finish : decoder -> Lockdoc_trace.Diag.t list
(** Declare end of input: reports a torn tail if bytes remain
    unconsumed, and returns every diagnostic in stream order. *)

val decode_string :
  ?mode:Lockdoc_trace.Trace.mode ->
  ?file:string ->
  string ->
  Lockdoc_trace.Trace.t * Lockdoc_trace.Diag.t list
(** Whole-buffer convenience mirroring
    {!Lockdoc_trace.Trace.read_lines}. *)
