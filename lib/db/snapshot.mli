(** Atomic snapshots of import state, and the durable directory's
    manifest.

    A snapshot serialises a full {!Store.t} (plus, for a mid-import
    checkpoint, the {!Import.engine} that owns it) as the magic
    followed by one {!Record}, written to a temp file and renamed into
    place — so a snapshot file either parses completely or is
    discarded, never half-read. The manifest is a small text file,
    also written atomically, that names the current snapshot and ties
    it to a WAL LSN and a source-trace offset: its rename is the
    checkpoint's commit point. *)

type meta = {
  m_snapshot : string;  (** snapshot file name, relative to the dir *)
  m_wal_lsn : int;  (** first WAL LSN not covered by the snapshot *)
  m_trace_offset : int;  (** next trace event to import *)
  m_trace_file : string;  (** source trace path, [""] if unknown *)
  m_trace_events : int;  (** total events in the source trace *)
  m_complete : bool;  (** the import ran to completion *)
}

type payload = {
  p_meta : meta;
  p_store : Store.t;
  p_engine : Import.engine option;  (** [None] once the import completed *)
  p_stats : Import.stats option;  (** [Some] once the import completed *)
}

val snapshot_name : int -> string
(** [snapshot_name seq] is ["snap-<seq>.snap"]. *)

val snapshot_seq : string -> int option
val snapshots : dir:string -> (int * string) list
(** Snapshot files as [(seq, name)], newest first. *)

val save : dir:string -> payload -> unit
(** Serialise atomically under [p_meta.m_snapshot]. *)

val load : string -> payload option
(** [None] on any damage: missing file, bad magic, short read,
    checksum mismatch, unmarshalable blob. Never raises. *)

val latest_loadable : dir:string -> payload option
(** Newest snapshot in [dir] that loads cleanly. *)

val write_manifest : dir:string -> meta -> unit
val read_manifest : dir:string -> meta option
(** [None] on a missing, damaged, unversioned or old-format manifest. *)

val old_format : dir:string -> string option
(** [Some v] when [dir] holds a manifest or snapshot of an earlier
    on-disk format, which this version cannot load; [v] names it
    (["lockdoc-durable 1"] to ["lockdoc-durable 3"]). *)
