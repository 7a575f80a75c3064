(* Atomic snapshots of import state, plus the durable directory's
   manifest. A snapshot file is the magic followed by one {!Record}
   holding the marshalled payload, written to a temp name and renamed
   into place; the manifest — also written atomically — is the commit
   point that ties a snapshot to a WAL position and a source-trace
   offset. *)

module Obs = Lockdoc_obs.Obs

let c_saves = Obs.counter "snapshot.saves"
let c_loads = Obs.counter "snapshot.loads"
let c_load_failures = Obs.counter "snapshot.load_failures"
let h_save_ms = Obs.histogram "snapshot.save_ms"
let h_load_ms = Obs.histogram "snapshot.load_ms"

type meta = {
  m_snapshot : string; (* snapshot file name, relative to the dir *)
  m_wal_lsn : int; (* first WAL lsn NOT covered by the snapshot *)
  m_trace_offset : int; (* next trace event to import *)
  m_trace_file : string; (* source trace path, "" if unknown *)
  m_trace_events : int; (* total events in the source trace *)
  m_complete : bool;
}

type payload = {
  p_meta : meta;
  p_store : Store.t;
  p_engine : Import.engine option; (* None once the import completed *)
  p_stats : Import.stats option; (* Some once the import completed *)
}

(* Bump the magic (and the manifest version below) whenever the
   marshalled layout of [payload] changes: unmarshalling a blob into a
   different type is unsafe, so an old snapshot must fail to load. *)
let magic = "LOCKDOCSNAP5\n"

let snapshot_name seq = Printf.sprintf "snap-%06d.snap" seq

let snapshot_seq name =
  if
    String.length name = 16
    && String.sub name 0 5 = "snap-"
    && Filename.check_suffix name ".snap"
  then int_of_string_opt (String.sub name 5 6)
  else None

let snapshots ~dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter_map (fun f ->
           Option.map (fun seq -> (seq, f)) (snapshot_seq f))
    |> List.sort (fun (a, _) (b, _) -> compare b a)

let save ~dir p =
  let t0 = if Obs.enabled () then Obs.Clock.wall () else 0. in
  let blob = Marshal.to_string p [] in
  let path = Filename.concat dir p.p_meta.m_snapshot in
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc ->
      Out_channel.output_string oc magic;
      Out_channel.output_string oc (Record.header blob);
      Crashpoint.hit "snapshot.write";
      Out_channel.output_string oc blob;
      Out_channel.flush oc);
  Crashpoint.hit "snapshot.rename";
  Sys.rename tmp path;
  Obs.incr c_saves;
  if Obs.enabled () then Obs.observe h_save_ms ((Obs.Clock.wall () -. t0) *. 1000.)

let load path =
  let t0 = if Obs.enabled () then Obs.Clock.wall () else 0. in
  match
    let s = In_channel.with_open_bin path In_channel.input_all in
    if not (String.starts_with ~prefix:magic s) then None
    else
      (* No length ceiling: a large store marshals past {!Record.max_len},
         and the bytes left in the file bound the length already. *)
      let pos = String.length magic and lim = String.length s in
      match Record.parse ~max_len:max_int s ~pos ~lim with
      | Record.Record { off; _ } -> Some (Marshal.from_string s off : payload)
      | _ -> None
  with
  | Some _ as p ->
      Obs.incr c_loads;
      if Obs.enabled () then
        Obs.observe h_load_ms ((Obs.Clock.wall () -. t0) *. 1000.);
      p
  | None | exception _ ->
      Obs.incr c_load_failures;
      None

let latest_loadable ~dir =
  List.fold_left
    (fun acc (_, name) ->
      match acc with
      | Some _ -> acc
      | None -> load (Filename.concat dir name))
    None (snapshots ~dir)

(* ---- Manifest ----------------------------------------------------- *)

let manifest_file = "MANIFEST"
let manifest_version = "lockdoc-durable 5"

(* First lines of the manifests and snapshots of earlier formats,
   with the format each one names. *)
let old_formats =
  [
    ("lockdoc-durable 1", "lockdoc-durable 1");
    ("LOCKDOCSNAP1", "lockdoc-durable 1");
    ("lockdoc-durable 2", "lockdoc-durable 2");
    ("LOCKDOCSNAP2", "lockdoc-durable 2");
    ("lockdoc-durable 3", "lockdoc-durable 3");
    ("LOCKDOCSNAP3", "lockdoc-durable 3");
    ("lockdoc-durable 4", "lockdoc-durable 4");
    ("LOCKDOCSNAP4", "lockdoc-durable 4");
  ]

let old_format ~dir =
  let first_line path =
    try In_channel.with_open_bin path In_channel.input_line with _ -> None
  in
  let old path = Option.bind (first_line path) (fun l -> List.assoc_opt l old_formats) in
  match old (Filename.concat dir manifest_file) with
  | Some _ as v -> v
  | None ->
      List.find_map (fun (_, name) -> old (Filename.concat dir name)) (snapshots ~dir)

let write_manifest ~dir m =
  let path = Filename.concat dir manifest_file in
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc ->
      Crashpoint.hit "manifest.write";
      Printf.fprintf oc "%s\n" manifest_version;
      Printf.fprintf oc "snapshot=%s\n" m.m_snapshot;
      Printf.fprintf oc "wal_lsn=%d\n" m.m_wal_lsn;
      Printf.fprintf oc "trace_offset=%d\n" m.m_trace_offset;
      Printf.fprintf oc "trace_file=%s\n"
        (Lockdoc_trace.Fieldenc.encode m.m_trace_file);
      Printf.fprintf oc "trace_events=%d\n" m.m_trace_events;
      Printf.fprintf oc "complete=%b\n" m.m_complete;
      Out_channel.flush oc);
  Crashpoint.hit "manifest.rename";
  Sys.rename tmp path

let read_manifest ~dir =
  let path = Filename.concat dir manifest_file in
  if not (Sys.file_exists path) then None
  else
    match
      In_channel.with_open_bin path (fun ic ->
          match In_channel.input_line ic with
          | Some v when v = manifest_version ->
              let tbl = Hashtbl.create 8 in
              let rec loop () =
                match In_channel.input_line ic with
                | None -> ()
                | Some line ->
                    (match String.index_opt line '=' with
                    | Some i ->
                        Hashtbl.replace tbl
                          (String.sub line 0 i)
                          (String.sub line (i + 1)
                             (String.length line - i - 1))
                    | None -> ());
                    loop ()
              in
              loop ();
              let str k = Hashtbl.find_opt tbl k in
              let int k = Option.bind (str k) int_of_string_opt in
              (match (str "snapshot", int "wal_lsn", int "trace_offset") with
              | Some snapshot, Some wal_lsn, Some trace_offset ->
                  Some
                    {
                      m_snapshot = snapshot;
                      m_wal_lsn = wal_lsn;
                      m_trace_offset = trace_offset;
                      m_trace_file =
                        (match str "trace_file" with
                        | Some s -> Lockdoc_trace.Fieldenc.decode s
                        | None -> "");
                      m_trace_events =
                        Option.value ~default:0 (int "trace_events");
                      m_complete = str "complete" = Some "true";
                    }
              | _ -> None)
          | _ -> None)
    with
    | m -> m
    | exception _ -> None
