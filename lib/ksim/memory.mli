(** Simulated kernel heap for monitored data structures.

    Instances live at concrete simulated addresses; every member access
    emits a raw [Mem_access] event with the absolute address, leaving the
    (address → data type, member) resolution to the trace post-processing
    step, exactly as the paper's VM-based monitoring does. Freed addresses
    are reused so the importer's liveness tracking is actually exercised. *)

type instance = {
  base : int;
  layout : Lockdoc_trace.Layout.t;
  subclass : string option;
  values : int array;  (** one slot per member, indexed by position *)
  mutable live : bool;
}

exception Use_after_free of string
(** An access to a freed instance: a fault of the simulated kernel (one
    of its paths touched an object after freeing it), not of a trace.
    The payload names the member and the simulated call stack, e.g.
    ["dentry.d_subdirs (in dput)"]. *)

val alloc : ?subclass:string -> Lockdoc_trace.Layout.t -> instance
(** Emits an [Alloc] event. *)

exception Double_free of string
(** A second free of one instance: like {!Use_after_free}, a fault of
    the simulated kernel. The payload names the type, the address and
    the simulated call stack, e.g. ["inode at 0x10000 (in iput)"]. *)

val free : instance -> unit
(** Emits a [Free] event; the address range becomes reusable. Raises
    {!Double_free}, emitting nothing, on a freed instance. *)

val member_ptr : instance -> string -> int
(** Absolute address of a member (used to place embedded locks). *)

val read : instance -> string -> int
(** Emits a read access at the current source location and returns the
    stored value. Raises {!Use_after_free} on a freed instance and
    [Invalid_argument] on lock-typed members. *)

val write : instance -> string -> int -> unit

val modify : instance -> string -> (int -> int) -> unit
(** Read-modify-write; emits both accesses, like the compiled code would. *)

(** {2 Atomic accessors}

    These wrap the access in an [atomic_*] function scope so the default
    filter drops it (paper Sec. 5.3, item 3). *)

val atomic_read : instance -> string -> int
val atomic_set : instance -> string -> int -> unit
val atomic_inc : instance -> string -> unit
val atomic_dec_and_test : instance -> string -> bool
