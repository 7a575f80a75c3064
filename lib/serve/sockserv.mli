(** Socket front end for the serve engine.

    {!serve} drives the sans-IO {!Server} with real file descriptors in
    a single-threaded select loop: per-connection outboxes, bounded
    reads, {!Lockdoc_obs.Obs.Clock.wall} (CLOCK_MONOTONIC) as the
    clock, [EINTR]-safe syscalls. It always listens on a Unix-domain
    socket and optionally on TCP too — both transports feed the
    identical engine and frame codec. It returns once a client sends
    [Shutdown] and every reply has been flushed.

    {!feed} is the matching robust client: it streams rows, honours
    [Nack] rewinds and [retry-after] pauses, and transparently
    reconnects (resuming from the server's watermark) when the
    connection drops or the session is restarted by the supervisor.
    With [~follow] it also subscribes to pushed rule updates and hands
    every [Info] frame to the callback.

    Clients take the daemon's address as the Unix [socket] path, or as
    [?tcp:(host, port)] which takes precedence when present. *)

type sealed = { events : int; rules : string; violations : string }

exception Error of string
(** A fatal protocol or transport failure (clients, plus {!serve} for a
    listener it cannot set up — never for a connected client's sins). *)

val serve :
  ?config:Server.config ->
  ?tcp:string * int ->
  ?on_ready:(int option -> unit) ->
  socket:string ->
  unit ->
  unit
(** Listen on [socket] (an existing file there is replaced) — and, when
    [tcp] is given, on that [(host, port)] as well ([SO_REUSEADDR];
    port [0] binds an ephemeral port) — and run until shutdown.
    [on_ready] is called once every listener is bound, before the loop
    starts serving, with the actually-bound TCP port when [tcp] is
    given; that is how tests discover an ephemeral port. Removes the
    socket file on the way out, also when [on_ready] raises (the
    exception is re-raised).

    A listener that cannot be set up (bind failure, unresolvable host)
    raises {!Error} ["<address>: <reason>"]; the socket file is then
    removed too. A [durable_root] in [config] that is not a directory
    or cannot be created raises {!Error} ["<root>: <reason>"] before
    any socket is bound. *)

val feed :
  ?rows_per_frame:int ->
  ?max_attempts:int ->
  ?tcp:string * int ->
  ?follow:(string -> unit) ->
  socket:string ->
  session:string ->
  string list ->
  sealed
(** Stream the given trace rows as [session] and seal. [max_attempts]
    bounds reconnections (default 200). [follow] subscribes to pushed
    rule updates: the callback receives the JSON of every [Info] frame
    — the subscription snapshot, each debounced delta, and the final
    sealed push. On reconnect the subscription is re-established
    automatically. Raises {!Error} on permanent failure. *)

val request :
  ?tcp:string * int -> socket:string -> Proto.client_msg -> Proto.server_msg
(** One-shot exchange: connect, send, return the first reply. Used for
    [Query] and [Shutdown]. *)

val stream_query :
  ?tcp:string * int -> socket:string -> session:string -> unit -> string
(** Attach to [session] and ask the online derivator for its current
    rules ([Query Stream_rules]): returns the server's [Info] JSON.
    The session is left unsealed and resumable. Raises {!Error} on a
    structured rejection. *)
