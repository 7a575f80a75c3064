(** Minimal JSON values, encoder and parser.

    The observability layer is zero-dependency by design (it is linked
    into every library of the pipeline), so it carries its own tiny JSON
    codec instead of reusing {!Lockdoc_core.Report}. Integers and floats
    are kept distinct so a metrics snapshot round-trips exactly:
    [of_string (to_string j)] re-reads counters as [I] and timings as
    [F]. *)

type t =
  | Null
  | B of bool
  | I of int
  | F of float
  | S of string
  | L of t list
  | O of (string * t) list

val to_string : t -> string
(** Compact (no whitespace) encoding. Object field order is preserved;
    floats print with enough digits to round-trip bit-exactly. *)

val add_string : Buffer.t -> string -> unit
(** Append one JSON string literal (RFC 8259 escaping: the quote, the
    backslash and every control character; other bytes pass through
    unchanged). The one string escaper of the repository: {!to_string}
    and [Lockdoc_core.Report] both write strings through it. *)

val of_string : string -> (t, string) result
(** Parse one JSON value; [Error msg] carries a byte offset. Numbers
    without [.], [e] or [E] parse as [I], all others as [F]. *)

val member : string -> t -> t option
(** [member key (O fields)] finds a field; [None] otherwise. *)

val equal : t -> t -> bool
(** Structural equality; [F] compares with [Float.equal] (bit-for-bit
    after a round-trip). *)
