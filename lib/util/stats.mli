(** Small summary-statistics helpers used by experiments and benches. *)

val mean : float list -> float
(** Arithmetic mean; 0. on the empty list. *)

val percentage : int -> int -> float
(** [percentage part whole] is [100 * part / whole] as a float; 0. when
    [whole = 0]. *)

val percentile : float -> float list -> float
(** [percentile p xs] for [p] in [\[0,1\]], nearest-rank on the sorted list.
    Raises [Invalid_argument] on the empty list. *)

type counter
(** A string-keyed tally. *)

val counter : unit -> counter
val incr : counter -> string -> unit
val add : counter -> string -> int -> unit
val count : counter -> string -> int
val total : counter -> int
val to_alist : counter -> (string * int) list
(** Sorted by key. *)
