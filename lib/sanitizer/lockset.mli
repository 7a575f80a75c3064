(** Eraser-style lockset race detection (the sanitizer's first half).

    Replays the store's accesses through one
    Virgin → Exclusive → Shared → Shared-Modified state machine per
    (allocation, member), intersecting a candidate lockset on every
    post-exclusive access: reads refine with all held locks, writes
    with the exclusively-held ones only. Accesses inside RCU/seqlock
    read sections are exempt (they must not empty the writer's
    candidates), as are accesses under the single-threaded shutdown
    entry points. A race is reported only when the candidate set is
    empty {e and} the triggering access is bare (write without an
    exclusive lock, read without any lock) — the policy that keeps the
    simulator's clean traces at zero false positives. *)

type witness = {
  w_event : int;  (** trace index of the first bare racy access *)
  w_kind : Lockdoc_trace.Event.access_kind;
  w_ctx : int;  (** control-flow pid of that access *)
  w_loc : Lockdoc_trace.Srcloc.t;
  w_stack : string list;  (** innermost frame first *)
}

type race = {
  r_type : string;  (** type key, e.g. "super_block" *)
  r_member : string;
  r_instances : int;  (** racy object instances *)
  r_bare : int;  (** bare accesses on emptied candidate sets, folded *)
  r_witness : witness;  (** earliest bare access over all instances *)
}

val quiescent_frames : string list
(** Shutdown entry points whose callees run single threaded; accesses
    under them are exempt. Shared with the replay engine's quiescence
    triage. *)

val analyse : Lockdoc_db.Store.t -> race list
(** Run the detector over every (instance, member) stream. Sorted by
    (type key, member). *)

val render : race list -> string
(** Human-readable summary, one line per racy (type, member). *)
