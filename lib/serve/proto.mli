(** Serve protocol messages.

    One {!Frame} = one message. Payloads are a tab-separated head line;
    a [Rows] frame additionally carries newline-separated trace rows
    (the exact lines of the trace text format — layout rows ["T\t…"]
    first, then event rows — so a trace file and a feed stream are the
    same bytes in the same order).

    [Rows.start] is the absolute index of the frame's first row within
    the session's stream. The server accepts rows exactly in sequence:
    a gap (lost frame) answers [Nack] with the expected index, an
    overlap (retransmission) is skipped idempotently. That makes the
    stream safe over lossy or retrying transports. *)

val version : int
(** 2. Version 1 carried a resend watermark in [Retry_after]. *)

type query =
  | Status
  | Metrics
  | Stream_rules
      (** Current rules from the session's online derivator — requires
          an attached session (send [Hello] first) and answers [Info]
          with the rules/violations JSON of every accepted row
          {e without} sealing: feeding can continue afterwards. *)

type client_msg =
  | Hello of { version : int; session : string }
      (** Open or resume the named session. *)
  | Rows of { start : int; lines : string list }
  | Seal of { rows : int }
      (** End of stream: finalize the import, mine rules, reply
          [Sealed]. [rows] is the total row count the client streamed;
          a mismatch with the server's accepted count means frames were
          lost in transit and answers [Nack] instead of sealing — the
          stream stays convergent even when the loss hits its tail.
          Idempotent — re-sealing a sealed session returns the cached
          result. *)
  | Query of query
  | Subscribe
      (** Register this connection for push rule updates — requires an
          attached session. The server immediately answers an [Info]
          snapshot push and thereafter pushes an [Info] rules delta
          whenever the session's online derivation drifts past the
          configured debounce, without the client polling. One
          subscriber per session (the attached connection); detaching
          drops it. *)
  | Ping
  | Bye  (** Detach politely; the session stays resumable. *)
  | Shutdown  (** Stop the daemon. *)

type server_msg =
  | Welcome of { resume : int }
      (** [resume] rows are already accepted; send row [resume] next. *)
  | Nack of { expected : int }  (** Sequence gap: rewind to [expected]. *)
  | Retry_after of { ms : int; reason : string }
      (** Come back after [ms]: the daemon is at [max_clients], or the
          session is restarting behind the supervisor's backoff. The
          connection is closed after this reply. *)
  | Err of { code : string; reason : string }
      (** Structured rejection. Codes: [proto], [version], [garbled]
          (also an over-long frame), [session-failed],
          [permanent-failure], [shutting-down]. *)
  | Pong
  | Sealed of { events : int; rules : string; violations : string }
      (** Final mined rules / violations as the exact
          {!Lockdoc_core.Report} JSON strings — the byte-identity
          oracle against the batch pipeline. *)
  | Info of { json : string }
  | Closing of { reason : string }

val client_to_payload : client_msg -> string
val client_of_payload : string -> (client_msg, string) result
val server_to_payload : server_msg -> string
val server_of_payload : string -> (server_msg, string) result
