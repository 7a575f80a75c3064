(** LEB128 variable-length integers over OCaml's native [int].

    The unsigned form serialises the 63-bit two's-complement bit
    pattern, 7 bits per byte, least significant group first; the high
    bit of each byte marks continuation. Every [int] fits in at most 9
    bytes. The signed form zigzag-maps the value first so that small
    magnitudes of either sign stay short — which is what makes the
    delta fields of the binary trace format compact. *)

val zigzag : int -> int
(** [zigzag n] interleaves negative and positive values:
    0, -1, 1, -2, … become 0, 1, 2, 3, …. Total bijection on [int]. *)

val unzigzag : int -> int
(** Inverse of {!zigzag}. *)

val write_uint : Buffer.t -> int -> unit
(** Append the unsigned encoding of [n]'s bit pattern. Negative
    arguments round-trip (they are the top of the unsigned range). *)

val write_int : Buffer.t -> int -> unit
(** [write_uint buf (zigzag n)]. *)

val read_uint : string -> int -> int * int
(** [read_uint s pos] decodes one unsigned varint at [pos]; returns
    [(value, next_pos)]. Raises [Failure] on truncation (the string
    ends mid-varint) or an overlong encoding (more than 9 bytes). *)

val read_int : string -> int -> int * int
(** Signed counterpart of {!read_uint} (zigzag-decoded). *)

val read_uint_at : string -> lim:int -> int ref -> int
(** [read_uint_at s ~lim pos] decodes one unsigned varint at [!pos],
    reading no byte at or past [lim], and advances [pos] past it,
    without allocating. Raises [Failure] like {!read_uint} (truncation
    meaning the varint runs into [lim]), leaving [pos] unchanged. *)

val read_int_at : string -> lim:int -> int ref -> int
(** Signed counterpart of {!read_uint_at}. *)
