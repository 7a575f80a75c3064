(** Deterministic crash injection for the durability layer.

    Durability code calls {!hit} at the sites where a real process
    death would be interesting (WAL append/flush, snapshot write,
    manifest rename, per-event import step). In production nothing is
    armed and a hit is a counter bump. Tests {!arm} a countdown; the
    n-th hit raises {!Crash} — optionally after running a [partial]
    callback that simulates a torn write (some bytes reached the disk,
    the rest didn't).

    The seeded damage that follows a crash, to the tail of the journal,
    is {!Wal.corrupt_tail}. *)

exception Crash of string
(** Raised by an armed {!hit}; the payload names the crash site. *)

val reset : unit -> unit
(** Disarm and zero the hit counter. *)

val arm : after:int -> unit
(** [arm ~after:n] makes the [n]-th subsequent {!hit} raise {!Crash}.
    Resets the hit counter. @raise Invalid_argument if [n <= 0]. *)

val hits : unit -> int
(** Hits observed since the last {!reset}/{!arm}. An unarmed run over
    a workload measures how many seedable crash points it contains. *)

val hit : ?partial:(unit -> unit) -> string -> unit
(** Mark a crash site. When the armed countdown expires: run [partial]
    (the torn-write simulation) if given, then raise [Crash site]. *)
