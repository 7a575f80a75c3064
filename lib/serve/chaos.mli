(** Connection-chaos harness for the serve daemon.

    Drives the exact {!Server} state machine through an in-process
    virtual-time transport and injects one seeded fault family per run:

    - [Drop] — whole frames vanish in either direction;
    - [Delay] — frames arrive late (FIFO order preserved);
    - [Garble] — a bit flips in a client frame in flight;
    - [Kill] — the connection dies mid-stream (half the time inside a
      frame), alternating with a {!Lockdoc_db.Crashpoint}-injected
      worker crash; with a durable root every other crash also corrupts
      the journal tail before the client returns, forcing a rebuild
      with truncation;
    - [Reconnect_storm] — the client abandons its connection every few
      frames and reconnects at once, often without the server ever
      seeing a close (exercising supersede);
    - [Slowloris] — early frames dribble in one byte per tick, and a
      mute extra connection must be idle-closed by the daemon.

    Every run streams two sessions concurrently — one faulted, one
    clean — to completion, then checks the accepted invariants:

    - the daemon survives (no exception escapes the engine);
    - both sessions seal with mined-rule and violation reports
      byte-identical to the batch pipeline over the same trace.

    [run] raises [Failure] when an invariant breaks; the returned
    {!outcome} carries fault-evidence counters so tests can assert the
    fault actually bit (frames really dropped, sessions really failed,
    the supersede path really ran). *)

type fault = Drop | Delay | Garble | Kill | Reconnect_storm | Slowloris

val fault_name : fault -> string
val all_faults : fault list

type outcome = {
  o_ticks : int;  (** virtual ticks until both sessions sealed *)
  o_frames_sent : int;  (** client frames handed to the transport *)
  o_faults_injected : int;  (** family-specific fault count *)
  o_reconnects : int;
  o_nacks : int;  (** sequence-gap rewinds the server issued *)
  o_retry_afters : int;  (** max-clients / backoff rejections *)
  o_garbled : int;  (** [err garbled] connection closes *)
  o_session_failures : int;  (** [err session-failed] supervisor kills *)
  o_supersedes : int;  (** old connections superseded by reconnects *)
  o_idle_closes : int;  (** connections the daemon idle-closed *)
  o_corrupted_tails : int;  (** journal tails damaged between crashes *)
  o_rows_resent : int;  (** duplicate rows absorbed idempotently *)
}

val run :
  ?seed:int ->
  ?scale:int ->
  ?durable_root:string ->
  ?transport:[ `Unix_sock | `Tcp ] ->
  ?workloads:string * string ->
  fault ->
  outcome
(** One chaos run: [workloads] names the (faulted, clean) benchmark
    traces (default [("pipe", "device")]), [durable_root] enables
    per-session journals (required for the rebuild legs of [Kill]).
    [transport] picks the segmentation model: [`Unix_sock] (default)
    delivers each frame as one chunk, [`Tcp] re-cuts every frame at
    seeded offsets into multiple runs, as a real TCP byte stream may —
    the fault family then plays out over reassembled fragments.
    Deterministic for fixed arguments. *)
