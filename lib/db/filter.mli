(** Post-processing filters (paper Sec. 5.3, items 2 and 3).

    Object initialisation and teardown deliberately run without locks, so
    accesses made below (de)initialisation functions are excluded, as are
    accesses to members that are locks themselves, [atomic_t]-style
    members, accesses made through atomic helpers, and members declared
    out of scope. *)

type t = {
  fn_blacklist : string list;
      (** drop an access if any stack frame matches one of these function
          names (init/teardown plus globally-ignored helpers) *)
  member_blacklist : (string * string) list;
      (** [(data type name, member)] pairs declared out of scope *)
  drop_lock_members : bool;  (** drop accesses to embedded lock variables *)
  drop_atomic_members : bool;  (** drop accesses to [atomic_t] members *)
}

val empty : t
(** No filtering at all. *)

val default : t
(** The evaluation configuration: init/teardown functions of every
    simulated subsystem, atomic helpers, and the member blacklist
    (paper Sec. 6: 99 + 58 function entries, 30 member entries). *)

val fn_blacklisted : t -> string list -> bool
(** [fn_blacklisted t stack] — does any frame hit the blacklist? *)

val member_blacklisted : t -> ty:string -> member:string -> bool

val blacklisted_members : t -> ty:string -> string list
(** The members of [ty] on the member blacklist, in blacklist order. *)
