(** The `lockdoc serve` daemon core, as a sans-IO state machine.

    The engine owns every protocol, session and supervision decision;
    transports stay dumb. Four entry points take the current time and
    return transport actions:

    - {!accept} — a transport accepted a connection;
    - {!on_bytes} — bytes arrived on a connection; every complete frame
      in them is handled in the call;
    - {!on_close} — a connection vanished;
    - {!step} — periodic tick: idle timeouts, debounced subscription
      pushes, session GC.

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

    {2 Ingest runs inline}

    A [Rows] frame is applied before {!on_bytes} returns: each fresh
    row is fed to the session's online engine and then journaled, so
    the journal holds only rows the engine accepted. A row the engine
    rejects fails the session in the same call; the rows before it stay
    applied, and a reconnect resumes at the rejected row. Client frames
    are at most 1 MiB, which bounds the work one call does. *)

type config = {
  max_clients : int;  (** concurrent connections *)
  session_timeout : float;  (** idle seconds before close / GC *)
  durable_root : string option;
      (** when set, each session journals accepted rows to
          [root/session-<id>/] in WAL framing and is rebuilt from the
          valid journal prefix on reconnect *)
  retry_after_ms : int;  (** suggested delay in max-clients replies *)
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
(** Creates [durable_root] if configured and missing.
    @raise Sys_error ["<root>: <reason>"] when [durable_root] is not a
    directory or cannot be created. The engine is single-threaded: a
    [Seal] frame is answered [Sealed] within the same {!on_bytes} call,
    after the session's online engine is finalized and frozen. A seal
    that raises fails the session like any other worker exception. *)

(** {2 Transport interface} *)

type output =
  | Send of int * Proto.server_msg
  | Close of int * string  (** close the connection; the reason is local *)

val accept : t -> now:float -> int * output list
(** Register a new connection and return its id. Over [max_clients]
    (or during shutdown) the returned outputs reject it — send them,
    then close. *)

val on_bytes : t -> now:float -> int -> string -> output list
(** Feed received bytes; decodes and handles every complete frame,
    applying the rows it carries (see {e Ingest runs inline}). *)

val on_close : t -> now:float -> int -> unit
(** The peer closed (or the transport failed). Detaches the session,
    which stays resumable. *)

val step : t -> now:float -> output list
(** One supervision tick: idle timeouts, debounced subscription
    pushes, session GC. Call regularly (the cadence bounds push latency
    and timeout precision — not correctness). *)

val encode_output : output -> int * [ `Send of string | `Close of string ]
(** Wire-encode an output for a byte transport. *)

(** {2 Introspection (tests, status queries)} *)

type session_view = {
  v_id : string;
  v_state : string;
  v_accepted : int;
  v_restarts : int;
  v_attached : bool;
}

val sessions : t -> session_view list
val n_conns : t -> int
val n_sessions : t -> int

val shutting_down : t -> bool
