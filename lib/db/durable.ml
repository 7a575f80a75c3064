(* The durable import coordinator: event journal + periodic snapshots
   + manifest, behind one incremental writer.

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
     that trace prefix builds. [recover] and [reopen] exploit this:
     they re-feed up to the first torn, undecodable or rejected record
     and stop there.
   - Resuming an import does NOT replay the journal tail: the tail past
     the checkpoint is discarded ([Wal.truncate_after]) and the trace
     suffix is re-imported, which also regenerates the identical tail.
     The tail only matters to readers without the source trace at
     hand: [recover], and [reopen]'s serve sessions. *)

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

type writer = {
  w_dir : string;
  w_every : int;
  w_file : string;  (* source trace path, "" if unknown *)
  w_events : int;  (* source trace length, 0 for an open-ended stream *)
  w_engine : Import.engine;
  w_wal : Wal.writer;
  mutable w_seq : int;  (* sequence number of the next snapshot *)
}

let engine w = w.w_engine

(* With [stats], the import's final ones, it marks the import complete. *)
let checkpoint w ~stats =
  let t0 = if Obs.enabled () then Obs.Clock.wall () else 0. in
  let dir = w.w_dir and complete = stats <> None in
  Crashpoint.hit "checkpoint.pre";
  Wal.flush w.w_wal;
  let lsn = Wal.lsn w.w_wal in
  let meta =
    {
      Snapshot.m_snapshot = Snapshot.snapshot_name w.w_seq;
      m_wal_lsn = lsn;
      m_trace_offset = Import.position w.w_engine;
      m_trace_file = w.w_file;
      m_trace_events = w.w_events;
      m_complete = complete;
    }
  in
  Snapshot.save ~dir
    {
      Snapshot.p_meta = meta;
      p_store = Import.engine_store w.w_engine;
      p_engine = (if complete then None else Some w.w_engine);
      p_stats = stats;
    };
  Snapshot.write_manifest ~dir meta;
  Crashpoint.hit "checkpoint.post";
  (* The snapshot now covers everything below [lsn]: compact. *)
  Wal.rotate w.w_wal;
  Wal.drop_below ~dir ~lsn;
  gc_snapshots ~dir ~keep:[ w.w_seq; w.w_seq - 1 ];
  w.w_seq <- w.w_seq + 1;
  Obs.incr c_checkpoints;
  if Obs.enabled () then
    Obs.observe h_checkpoint_ms ((Obs.Clock.wall () -. t0) *. 1000.)

(* A writer appending at [engine]'s position: LSN = trace position. At
   position 0 it commits the first checkpoint before any event. *)
let writer ~dir ?(every = 50_000) ?(file = "") ?(events = 0) ~seq engine =
  let w =
    { w_dir = dir; w_every = every; w_file = file; w_events = events;
      w_engine = engine; w_seq = seq;
      w_wal = Wal.create ~dir ~start_lsn:(Import.position engine) () }
  in
  if Import.position engine = 0 then checkpoint w ~stats:None;
  w

(* The sequence number after the snapshot [m] names. *)
let next_seq m =
  Option.fold ~none:1 ~some:succ (Snapshot.snapshot_seq m.Snapshot.m_snapshot)

let start ~dir engine =
  ensure_dir dir;
  reset_dir dir;
  writer ~dir ~seq:0 engine

let feed w ev =
  Import.feed w.w_engine ev;
  Wal.append w.w_wal (Event.to_line ev);
  let pos = Import.position w.w_engine in
  (* A trace's last event is covered by the completing checkpoint. *)
  if pos mod w.w_every = 0 && pos <> w.w_events then checkpoint w ~stats:None

let close w = Wal.close w.w_wal

(* Feed the snapshot engine [g] the valid journal prefix past [m]. *)
let replay_tail ~dir m g =
  let scanner = Event.scanner () in
  let (replayed, _) as r =
    Wal.replay ~dir ~from:m.Snapshot.m_wal_lsn (fun line ->
        Import.feed g (Event.parse scanner line))
  in
  Obs.add c_replayed replayed;
  r

let reopen ~dir =
  match Snapshot.load_latest ~dir with
  | Some { Snapshot.p_meta = m; p_engine = Some g; _ } ->
      ignore (replay_tail ~dir m g);
      Wal.truncate_after ~dir ~lsn:(Import.position g);
      Some
        (writer ~dir ~file:m.Snapshot.m_trace_file
           ~events:m.Snapshot.m_trace_events ~seq:(next_seq m) g)
  | _ -> None

let import ~dir ?(checkpoint_every = 50_000) ?mode ?(trace_file = "") trace =
  if checkpoint_every <= 0 then
    invalid_arg "Durable.import: checkpoint_every must be positive";
  ensure_dir dir;
  let events = trace.Trace.events in
  let n = Array.length events in
  let resume =
    match Snapshot.read_manifest ~dir with
    | None -> None
    | Some m ->
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
        Snapshot.load_latest ~dir
  in
  match resume with
  | Some { Snapshot.p_meta; p_stats = Some stats; p_store; _ }
    when p_meta.Snapshot.m_complete ->
      (* Nothing to do: the import already ran to completion. *)
      ( p_store,
        stats,
        { pr_resumed_from = n; pr_checkpoints = 0; pr_wal_records = 0 } )
  | resume ->
      let open_at =
        writer ~dir ~every:checkpoint_every ~file:trace_file ~events:n
      in
      (* This run's checkpoints take sequence numbers from [seq0] on. *)
      let seq0, w =
        match resume with
        | Some { Snapshot.p_meta = m; p_engine = Some g; _ } ->
            (* Events past the checkpoint will be journaled again as the
               trace suffix is re-imported; drop them so the journal and
               the store never disagree. *)
            Wal.truncate_after ~dir ~lsn:m.Snapshot.m_wal_lsn;
            (next_seq m, open_at ~seq:(next_seq m) g)
        | _ ->
            reset_dir dir;
            (0, open_at ~seq:0 (Import.engine ?mode trace.Trace.layouts))
      in
      let start_pos = Import.position w.w_engine in
      if start_pos > 0 then Obs.incr c_resumes;
      while Import.position w.w_engine < n do
        Crashpoint.hit "import.event";
        feed w events.(Import.position w.w_engine)
      done;
      let stats = Import.finalize w.w_engine in
      checkpoint w ~stats:(Some stats);
      close w;
      ( Import.engine_store w.w_engine,
        stats,
        {
          pr_resumed_from = start_pos;
          pr_checkpoints = w.w_seq - seq0;
          pr_wal_records = Wal.lsn w.w_wal - start_pos;
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
  match Snapshot.load_latest ~dir with
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
            let replayed, torn = replay_tail ~dir m g in
            (replayed, torn, Import.position g)
      in
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
