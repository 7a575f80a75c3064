(** The `lockdoc serve` daemon core, as a sans-IO state machine.

    The engine owns every protocol, session, supervision and
    backpressure decision; transports stay dumb. Four entry points take
    the current time and return transport actions:

    - {!accept} — a transport accepted a connection;
    - {!on_bytes} — bytes arrived on a connection;
    - {!on_close} — a connection vanished;
    - {!step} — periodic tick: bounded ingest processing, idle
      timeouts, session GC.

    The Unix socket front end ({!Sockserv}) drives it with real file
    descriptors and the monotonic clock ({!Lockdoc_obs.Obs.Clock.wall});
    the chaos harness ({!Chaos}) drives the identical machine with
    scripted faults and virtual time.

    {2 Fault isolation}

    A framing violation closes the {e connection} ([err garbled]); the
    session survives and a reconnecting client resumes from
    [Welcome.resume]. A worker exception — protocol abuse, importer
    anomaly, injected {!Lockdoc_db.Crashpoint} crash — kills the
    {e session}: the supervisor tombstones it behind capped exponential
    backoff ([retry-after] on early reconnect, [err permanent-failure]
    after [max_restarts]), and a later reconnect rebuilds it from the
    durable journal. The daemon itself never dies.

    {2 Backpressure}

    Every session journals and queues accepted rows; {!step} drains at
    most [events_per_step] per session per tick. A rows frame that
    would push the session past [queue_bytes] — or the daemon past
    [total_queue_bytes] — is rejected whole with [retry-after]:
    graceful degradation, never OOM, never a silent drop. *)

type config = {
  max_clients : int;  (** concurrent connections *)
  queue_bytes : int;  (** per-session pending-ingest cap *)
  total_queue_bytes : int;  (** daemon-wide pending-ingest cap *)
  max_frame : int;  (** largest client frame accepted *)
  session_timeout : float;  (** idle seconds before close / GC *)
  events_per_step : int;  (** per-session feed budget per {!step} *)
  durable_root : string option;
      (** when set, each session journals accepted rows to
          [root/session-<id>/] in WAL framing and is rebuilt from the
          valid journal prefix on reconnect *)
  wal_sync_every : int;
  retry_after_ms : int;  (** suggested delay in load-shed replies *)
  restart_backoff : float;  (** base of the exponential backoff, seconds *)
  max_backoff : float;
  max_restarts : int;  (** failures before [permanent-failure] *)
  tac : float;  (** acceptance threshold of stream answers and seals *)
  sub_debounce_events : int;
      (** a subscribed session is re-frozen for a possible push only
          after this many new events since the last push *)
  sub_min_interval : float;
      (** … and at most this often (seconds, on the driver's clock) *)
}

val default_config : config

type t

val create : ?config:config -> unit -> t
(** Creates [durable_root] if configured and missing. The engine is
    single-threaded: a [Seal] frame is answered [Sealed] within the
    same {!on_bytes} call, after the session's queued rows are applied
    and its online engine is frozen — the work a [stream] query on the
    same state already does inline. A seal that raises fails the
    session like any other worker exception. *)

val config : t -> config

(** {2 Transport interface} *)

type output =
  | Send of int * Proto.server_msg
  | Close of int * string  (** close the connection; the reason is local *)

val accept : t -> now:float -> int * output list
(** Register a new connection and return its id. Over [max_clients]
    (or during shutdown) the returned outputs reject it — send them,
    then close. *)

val on_bytes : t -> now:float -> int -> string -> output list
(** Feed received bytes; decodes and handles every complete frame. *)

val on_close : t -> now:float -> int -> unit
(** The peer closed (or the transport failed). Detaches the session,
    which stays resumable. *)

val step : t -> now:float -> output list
(** One supervision tick: idle timeouts, bounded ingest processing,
    debounced subscription pushes, session GC. Call regularly (the
    cadence bounds ingest latency and timeout precision — not
    correctness). *)

val encode_output : output -> int * [ `Send of string | `Close of string ]
(** Wire-encode an output for a byte transport. *)

(** {2 Introspection (tests, status queries)} *)

type session_view = {
  v_id : string;
  v_state : string;
  v_accepted : int;
  v_applied : int;
  v_pending_bytes : int;
  v_restarts : int;
  v_attached : bool;
}

val sessions : t -> session_view list
val n_conns : t -> int
val n_sessions : t -> int
val pending_total : t -> int
(** Queued ingest bytes across all sessions — bounded by
    [total_queue_bytes] at all times. *)

val shutting_down : t -> bool
val status_json : t -> string
