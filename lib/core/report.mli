(** Machine-readable export of mined rules and violations.

    The documentation generator emits human-oriented source comments
    (Fig. 8); this module emits the same information as JSON so editor
    tooling, CI checks, or the paper's hypothetical "locking linter" can
    consume it. The encoder is self-contained (no JSON dependency) and
    escapes strings per RFC 8259. *)

type json =
  | S of string
  | I of int
  | F of float
  | L of json list
  | O of (string * json) list
      (** A minimal JSON document; [F] renders as {!add_fixed6} does,
          [O] preserves field order. *)

val to_string : json -> string
(** Serialise (RFC 8259 string escaping, no insignificant whitespace). *)

(** {2 Scalars}

    The tree encoder and the direct writers below write strings with
    {!Lockdoc_obs.Json.add_string} and floats with {!add_fixed6}, so
    each has one implementation. *)

val add_fixed6 : Buffer.t -> float -> unit
(** Exactly the bytes of [Printf.sprintf "%.6f" f], for every float.
    Finite values in \[0, 1e6) are written by a fixed-point writer
    without [Printf]; it declines, and [Printf] writes the value, for a
    product [f *. 1e6] whose fraction lies within 1e-3 of one half
    (exact ties such as 1/128 = 0.0078125, which C rounds to even, and
    near-ties), and for NaN, the infinities, -0, negatives and values
    of 1e6 and above. *)

val add_joined : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a list -> unit
(** [add_joined add buf items] appends each item with [add], joined by
    bare commas: the inside of a JSON array. *)

val add_array : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a list -> unit
(** {!add_joined} inside brackets: a JSON array, as the tree encoder
    writes [L]. *)

val fill : Buffer.t -> (Buffer.t -> unit) -> string
(** [fill buf write] clears [buf], runs [write] on it and returns what
    it wrote: one copy out of a buffer its owner reuses. *)

(** {2 Rules and violations} *)

type strings
(** Rendered rule strings and held-lock arrays, by lock list. Owned by
    the caller — one per report call, or one per long-lived writer such
    as the online derivator — so nothing is shared between callers. *)

val strings : unit -> strings

val add_mined_rule : strings -> Buffer.t -> Derivator.mined -> unit
(** Append {!mined_rule_to_json}'s object. *)

val add_violation : strings -> Buffer.t -> Violation.violation -> unit
(** Append one element of {!violations_to_json}'s array. *)

val mined_to_json : Derivator.mined list -> string
(** JSON array; one object per (type, member, direction) with the winning
    rule, support, and every scored hypothesis. *)

val mined_rule_to_json : Derivator.mined -> string
(** One element of {!mined_to_json}'s array, standalone. Arrays join
    their elements with bare commas, so concatenating these with
    ["," ] inside ["[" ... "]"] reproduces {!mined_to_json} byte for
    byte — the serve push path relies on this to compute rule deltas
    per object while keeping its ["rules"] field oracle-identical. The
    same holds for {!add_violation}'s objects and
    {!violations_to_json}. *)

val violations_to_json : Violation.violation list -> string
(** JSON array; one object per violating observation with the expected
    rule, held locks, location, and stack. *)

val checked_to_json : Checker.checked list -> string
(** JSON array of documentation-check results. *)

val lockdep_to_json : Lockdep.report -> string
(** JSON object with the classes, acquisition-order edges, canonical
    cycles, and self-nesting edges of a lockdep report. *)

val lockmeter_to_json : Lockmeter.stat list -> string
(** JSON array; one object per lock class with the usage counters of
    {!Lockmeter.stat}. *)
