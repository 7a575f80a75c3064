(* The durable import coordinator: event journal + periodic snapshots
   + manifest.

   Invariants:
   - The manifest rename is the commit point of a checkpoint. Before
     it lands, the previous checkpoint is still the truth.
   - The journal holds one trace line per imported event, appended
     after [Import.feed] accepted it, so the record at LSN l is trace
     event l and a snapshot's [m_wal_lsn] equals its [m_trace_offset].
     Records with LSN >= m_wal_lsn are not in the snapshot.
   - The first checkpoint commits before the first event is fed, so a
     valid directory never has journal records without a snapshot.
   - Import is deterministic, so feeding any valid journal prefix to
     the snapshot's engine yields exactly the store a plain import of
     that trace prefix builds. [recover] exploits this: it re-feeds up
     to the first torn, undecodable or rejected record and stops there.
   - Resuming an import does NOT replay the journal tail: the tail past
     the checkpoint is discarded ([Wal.truncate_after]) and the trace
     suffix is re-imported, which also regenerates the identical tail.
     The tail only matters to [recover], i.e. to readers who want the
     freshest consistent store without the source trace at hand. *)

module Trace = Lockdoc_trace.Trace
module Event = Lockdoc_trace.Event
module Obs = Lockdoc_obs.Obs

let c_checkpoints = Obs.counter "durable.checkpoints"
let c_resumes = Obs.counter "durable.resumes"
let c_recoveries = Obs.counter "durable.recoveries"
let c_replayed = Obs.counter "durable.events_replayed"
let h_checkpoint_ms = Obs.histogram "durable.checkpoint_ms"

exception Foreign_dir of string

type progress = {
  pr_resumed_from : int;
  pr_checkpoints : int;
  pr_wal_records : int;
}

type recovery = {
  r_store : Store.t;
  r_snapshot : string option;
  r_wal_lsn : int;
  r_replayed : int;
  r_stop : string option;
  r_trace_offset : int;
  r_trace_file : string;
  r_complete : bool;
}

let ensure_dir dir = if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let remove_if p = if Sys.file_exists p then Sys.remove p

(* The files that make a directory durable state. *)
let state_file f =
  Option.is_some (Wal.segment_start f)
  || Option.is_some (Snapshot.snapshot_seq f)
  || f = "MANIFEST"

let is_durable ~dir =
  Sys.file_exists dir && Sys.is_directory dir
  && Array.exists state_file (Sys.readdir dir)

let reset_dir dir =
  (* Fresh import: stale segments, snapshots, temps and manifest from a
     previous (possibly crashed) run must not shadow the new one. *)
  Array.iter
    (fun f ->
      if state_file f || Filename.check_suffix f ".tmp" then
        remove_if (Filename.concat dir f))
    (Sys.readdir dir)

let gc_snapshots ~dir ~keep =
  List.iter
    (fun (seq, name) ->
      if not (List.mem seq keep) then remove_if (Filename.concat dir name))
    (Snapshot.snapshots ~dir);
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".tmp" then
        remove_if (Filename.concat dir f))
    (Sys.readdir dir)

let import ~dir ?(checkpoint_every = 50_000) ?mode ?(trace_file = "") trace =
  if checkpoint_every <= 0 then
    invalid_arg "Durable.import: checkpoint_every must be positive";
  ensure_dir dir;
  let events = trace.Trace.events in
  let n = Array.length events in
  let resume =
    match Snapshot.read_manifest ~dir with
    | None -> None
    | Some m -> (
        let identity_ok =
          m.Snapshot.m_trace_events = n
          && (m.Snapshot.m_trace_file = "" || trace_file = ""
             || m.Snapshot.m_trace_file = trace_file)
        in
        if not identity_ok then begin
          let describe file n =
            if file = "" then Printf.sprintf "%d events" n
            else Printf.sprintf "%s, %d events" file n
          in
          raise
            (Foreign_dir
               (Printf.sprintf "%s belongs to a different trace (%s; given %s)"
                  dir
                  (describe m.Snapshot.m_trace_file m.Snapshot.m_trace_events)
                  (describe trace_file n)))
        end;
        match Snapshot.load (Filename.concat dir m.Snapshot.m_snapshot) with
        | Some p -> Some (m, p)
        | None ->
            (* Manifest names a snapshot that won't load (crash landed
               between rename steps, or later damage). Fall back to the
               newest loadable one; its own meta is authoritative. *)
            Option.map (fun p -> (p.Snapshot.p_meta, p))
              (Snapshot.latest_loadable ~dir))
  in
  match resume with
  | Some (_, { Snapshot.p_meta; p_stats = Some stats; p_store; _ })
    when p_meta.Snapshot.m_complete ->
      (* Nothing to do: the import already ran to completion. *)
      ( p_store,
        stats,
        { pr_resumed_from = n; pr_checkpoints = 0; pr_wal_records = 0 } )
  | resume ->
      let engine, start_pos, seq0 =
        match resume with
        | Some (m, { Snapshot.p_engine = Some g; _ }) ->
            let seq =
              match Snapshot.snapshot_seq m.Snapshot.m_snapshot with
              | Some s -> s + 1
              | None -> 1
            in
            (* Events past the checkpoint will be journaled again as the
               trace suffix is re-imported; drop them so the journal and
               the store never disagree. *)
            Wal.truncate_after ~dir ~lsn:m.Snapshot.m_wal_lsn;
            (g, Import.position g, seq)
        | _ ->
            reset_dir dir;
            (Import.engine ?mode trace.Trace.layouts, 0, 0)
      in
      let store = Import.engine_store engine in
      (* LSN = trace position: one record per event. *)
      let wal = Wal.create ~dir ~start_lsn:start_pos () in
      let seq = ref seq0 in
      let checkpoints = ref 0 in
      if start_pos > 0 then Obs.incr c_resumes;
      let checkpoint ~complete ~stats =
        let t0 = if Obs.enabled () then Obs.Clock.wall () else 0. in
        Crashpoint.hit "checkpoint.pre";
        Wal.flush wal;
        let lsn = Wal.lsn wal in
        let meta =
          {
            Snapshot.m_snapshot = Snapshot.snapshot_name !seq;
            m_wal_lsn = lsn;
            m_trace_offset = Import.position engine;
            m_trace_file = trace_file;
            m_trace_events = n;
            m_complete = complete;
          }
        in
        Snapshot.save ~dir
          {
            Snapshot.p_meta = meta;
            p_store = store;
            p_engine = (if complete then None else Some engine);
            p_stats = stats;
          };
        Snapshot.write_manifest ~dir meta;
        Crashpoint.hit "checkpoint.post";
        (* The snapshot now covers everything below [lsn]: compact. *)
        Wal.rotate wal;
        Wal.drop_below ~dir ~lsn;
        gc_snapshots ~dir ~keep:[ !seq; !seq - 1 ];
        incr seq;
        incr checkpoints;
        Obs.incr c_checkpoints;
        if Obs.enabled () then
          Obs.observe h_checkpoint_ms ((Obs.Clock.wall () -. t0) *. 1000.)
      in
      if start_pos = 0 then checkpoint ~complete:false ~stats:None;
      while Import.position engine < n do
        Crashpoint.hit "import.event";
        let ev = events.(Import.position engine) in
        Import.feed engine ev;
        Wal.append wal (Event.to_line ev);
        let pos = Import.position engine in
        if pos mod checkpoint_every = 0 && pos < n then
          checkpoint ~complete:false ~stats:None
      done;
      let stats = Import.finalize engine in
      checkpoint ~complete:true ~stats:(Some stats);
      Wal.close wal;
      ( store,
        stats,
        {
          pr_resumed_from = start_pos;
          pr_checkpoints = !checkpoints;
          pr_wal_records = Wal.lsn wal - start_pos;
        } )

let empty_recovery reason =
  {
    r_store = Store.create ();
    r_snapshot = None;
    r_wal_lsn = 0;
    r_replayed = 0;
    r_stop = Some reason;
    r_trace_offset = 0;
    r_trace_file = "";
    r_complete = false;
  }

let recover ~dir =
  Obs.incr c_recoveries;
  let payload =
    match Snapshot.read_manifest ~dir with
    | Some m -> (
        match Snapshot.load (Filename.concat dir m.Snapshot.m_snapshot) with
        | Some p -> Some p
        | None -> Snapshot.latest_loadable ~dir)
    | None -> Snapshot.latest_loadable ~dir
  in
  match payload with
  | None -> (
      match Snapshot.old_format ~dir with
      | Some v ->
          empty_recovery
            (Printf.sprintf
               "old-format directory (%s); rerun import --durable to rebuild it"
               v)
      | None -> empty_recovery "no loadable snapshot")
  | Some { Snapshot.p_meta = m; p_store; p_engine; _ } ->
      (* A completed snapshot has no engine, and nothing was journaled
         after its checkpoint. *)
      let replayed, torn, offset =
        match p_engine with
        | None -> (0, None, m.Snapshot.m_trace_offset)
        | Some g ->
            let scanner = Event.scanner () in
            let replayed, torn =
              Wal.replay ~dir ~from:m.Snapshot.m_wal_lsn (fun line ->
                  Import.feed g (Event.parse scanner line))
            in
            (replayed, torn, Import.position g)
      in
      Obs.add c_replayed replayed;
      {
        r_store = p_store;
        r_snapshot = Some m.Snapshot.m_snapshot;
        r_wal_lsn = m.Snapshot.m_wal_lsn + replayed;
        r_replayed = replayed;
        r_stop = torn;
        r_trace_offset = offset;
        r_trace_file = m.Snapshot.m_trace_file;
        r_complete = m.Snapshot.m_complete;
      }
