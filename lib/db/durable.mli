(** Durable, checkpointed, resumable trace import.

    The durable directory holds three kinds of file:
    - [wal-<lsn>.seg] — CRC-framed event journal segments ({!Wal}):
      one trace line ({!Lockdoc_trace.Event.to_line}) per imported
      event, so LSN [l] is trace event [l];
    - [snap-<seq>.snap] — atomic snapshots of import state ({!Snapshot});
    - [MANIFEST] — the commit point: names the current snapshot and
      ties it to a WAL LSN and a source-trace event offset.

    Crash-consistency contract: after a process death at ANY point,
    either {!recover} rebuilds a consistent store (manifest snapshot,
    then the valid prefix of the journal tail re-fed to the
    snapshot's import engine), or — when the crash predates the first
    manifest — the directory reads as empty and the import simply
    restarts. Resuming {!import} over the same directory and trace
    produces a store whose derived rules are byte-identical to an
    uninterrupted run: it reloads the checkpointed engine, discards the
    journal past the checkpoint, and re-imports the remaining trace
    suffix. *)

exception Foreign_dir of string
(** Raised by {!import} when the directory holds a checkpoint of a
    different trace. The message names the directory and both
    traces. *)

type progress = {
  pr_resumed_from : int;  (** trace offset the run started at (0 = fresh) *)
  pr_checkpoints : int;  (** checkpoints written by this run *)
  pr_wal_records : int;  (** journal records appended by this run *)
}

type recovery = {
  r_store : Store.t;
  r_snapshot : string option;  (** snapshot the store was rebuilt from *)
  r_wal_lsn : int;  (** LSN up to which the journal was replayed *)
  r_replayed : int;  (** journal records re-fed on top of the snapshot *)
  r_stop : string option;
      (** why recovery stopped short, if it did: no loadable snapshot
          (naming an old-format directory as such), or the first torn,
          undecodable or rejected journal record *)
  r_trace_offset : int;
      (** trace events the recovered store covers: the engine's
          position after replay *)
  r_trace_file : string;
  r_complete : bool;  (** the recorded import had finished *)
}

val import :
  dir:string ->
  ?checkpoint_every:int ->
  ?mode:Import.mode ->
  ?trace_file:string ->
  Lockdoc_trace.Trace.t ->
  Store.t * Import.stats * progress
(** Import [trace] with durability: every event goes to the journal
    once the engine has accepted it, and every [checkpoint_every]
    events (default 50000) a snapshot + manifest checkpoint is
    committed. If [dir] already holds a checkpoint for this trace, the
    import resumes from it; if it holds a {e completed} import, the
    stored result is returned without re-importing. A directory in an
    old format, or without a loadable checkpoint, is started afresh.
    [trace_file] (and the event count) guard against resuming over a
    different trace.
    @raise Foreign_dir if [dir] belongs to a different trace.
    @raise Invalid_argument if [checkpoint_every <= 0]. *)

val recover : dir:string -> recovery
(** Rebuild the freshest consistent store from [dir] without the
    source trace: load the manifest's snapshot (falling back to the
    newest loadable one), then feed the valid prefix of the journal
    tail to the snapshot's engine, stopping — not failing — at the
    first torn, undecodable or rejected record. The result equals a
    plain import of the first [r_trace_offset] trace events. Never
    raises on damaged state; a directory without a loadable snapshot
    (empty, missing, or in an old format) yields an empty store and
    a reason. *)
