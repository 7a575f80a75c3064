(* Segmented write-ahead log of {!Record}s. A segment file
   "wal-%010d.seg" holds consecutive records starting at the LSN in its
   name. Readers treat any damage {!Record.parse} reports as a torn
   tail and stop there rather than failing. *)

module Obs = Lockdoc_obs.Obs

(* Durability metrics. [wal.flushes] counts channel flushes — the
   simulated-persistence equivalent of fsync; [wal.torn_tail] counts
   replays that stopped early at damage or a rejected record. *)
let c_appends = Obs.counter "wal.appends"
let c_bytes = Obs.counter "wal.bytes"
let c_flushes = Obs.counter "wal.flushes"
let c_rotations = Obs.counter "wal.rotations"
let c_torn = Obs.counter "wal.torn_tail"
let c_replayed = Obs.counter "wal.records_read"

(* ---- Segment naming ----------------------------------------------- *)

let segment_name lsn = Printf.sprintf "wal-%010d.seg" lsn

let segment_start name =
  if
    String.length name = 18
    && String.sub name 0 4 = "wal-"
    && Filename.check_suffix name ".seg"
  then int_of_string_opt (String.sub name 4 10)
  else None

let segment_files ~dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter_map (fun f ->
           Option.map (fun start -> (start, Filename.concat dir f))
             (segment_start f))
    |> List.sort compare

(* ---- Writer ------------------------------------------------------- *)

type writer = {
  w_dir : string;
  w_segment_bytes : int;
  mutable w_oc : out_channel;
  mutable w_seg_start : int;
  mutable w_seg_bytes : int;
  mutable w_lsn : int;
  w_buf : Buffer.t;
      (* Frames not yet handed to the channel. Keeping our own buffer
         (and flushing the channel immediately after every write) means
         a simulated crash can't leave nondeterministic channel-buffered
         bytes behind. *)
}

let open_segment dir lsn =
  open_out_gen
    [ Open_wronly; Open_creat; Open_trunc; Open_binary ]
    0o644
    (Filename.concat dir (segment_name lsn))

let create ~dir ?(segment_bytes = 1 lsl 20) ?(start_lsn = 0) () =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  {
    w_dir = dir;
    w_segment_bytes = segment_bytes;
    w_oc = open_segment dir start_lsn;
    w_seg_start = start_lsn;
    w_seg_bytes = 0;
    w_lsn = start_lsn;
    w_buf = Buffer.create 4096;
  }

let lsn w = w.w_lsn

let flush w =
  if Buffer.length w.w_buf > 0 then begin
    let data = Buffer.contents w.w_buf in
    Buffer.clear w.w_buf;
    Crashpoint.hit "wal.flush.pre";
    (* A torn flush writes a prefix of the pending bytes and dies. *)
    Crashpoint.hit "wal.flush.torn" ~partial:(fun () ->
        let half = String.length data / 2 in
        output_substring w.w_oc data 0 half;
        Stdlib.flush w.w_oc);
    output_string w.w_oc data;
    Stdlib.flush w.w_oc;
    Obs.incr c_flushes
  end

let rotate w =
  flush w;
  if w.w_seg_bytes > 0 then begin
    Obs.incr c_rotations;
    close_out w.w_oc;
    w.w_oc <- open_segment w.w_dir w.w_lsn;
    w.w_seg_start <- w.w_lsn;
    w.w_seg_bytes <- 0
  end

let append w payload =
  Crashpoint.hit "wal.append";
  if w.w_seg_bytes >= w.w_segment_bytes then rotate w;
  Record.add w.w_buf payload;
  let n = Record.header_bytes + String.length payload in
  Obs.incr c_appends;
  Obs.add c_bytes n;
  w.w_seg_bytes <- w.w_seg_bytes + n;
  w.w_lsn <- w.w_lsn + 1;
  flush w

let close w =
  flush w;
  close_out w.w_oc

(* ---- Reader ------------------------------------------------------- *)

type parsed = {
  ps_records : (int * string) list;  (* (lsn, payload), ascending *)
  ps_torn : string option;  (* why parsing stopped, if it did *)
}

(* Stop at the first damage: everything before it is trusted, nothing
   after it is. *)
let parse_segment ~start content =
  let n = String.length content in
  let rec go lsn pos acc =
    let stop reason = { ps_records = List.rev acc; ps_torn = reason } in
    let torn fmt = Printf.ksprintf (fun r -> stop (Some r)) fmt in
    if pos >= n then stop None
    else
      match Record.parse content ~pos ~lim:n with
      | Record.Record { off; len } ->
          go (lsn + 1) (off + len) ((lsn, String.sub content off len) :: acc)
      | Record.Short_header -> torn "torn header at offset %d" pos
      | Record.Bad_length len -> torn "corrupt length %d at offset %d" len pos
      | Record.Short_payload { have; want } ->
          torn "torn record at offset %d (%d of %d bytes)" pos have want
      | Record.Bad_crc _ ->
          torn "checksum mismatch at offset %d (lsn %d)" pos lsn
  in
  go start 0 []

let read_file path = In_channel.with_open_bin path In_channel.input_all

let replay ~dir ~from f =
  let applied = ref 0 in
  let stop = ref None in
  let expected = ref from in
  (try
     List.iter
       (fun (start, path) ->
         if start > !expected && start > from then begin
           (* A gap in the LSN sequence that reaches into the range the
              caller cares about: records at or past the gap cannot be
              trusted. (A gap wholly below [from] is survivable — the
              snapshot already covers it.) *)
           stop := Some (Printf.sprintf "missing records before lsn %d" start);
           raise Exit
         end
         else begin
           let parsed = parse_segment ~start (read_file path) in
           List.iter
             (fun (lsn, payload) ->
               if lsn >= from then begin
                 match f payload with
                 | () -> incr applied
                 | exception e ->
                     (* A record that framed correctly but that the
                        caller rejects (a flipped bit can survive into
                        a plausible field): same treatment as a torn
                        tail — trust nothing past it. *)
                     stop :=
                       Some
                         (Printf.sprintf "rejected record at lsn %d: %s" lsn
                            (Printexc.to_string e));
                     raise Exit
               end;
               expected := lsn + 1)
             parsed.ps_records;
           match parsed.ps_torn with
           | Some reason when !expected >= from ->
               (* Damage at or past the point the caller cares about:
                  stop here for good. *)
               stop := Some reason;
               raise Exit
           | Some _ ->
               (* Damage confined below [from]; later segments may
                  still carry the records we need, but only if they
                  start at or below our resume point. The [start >
                  expected] guard above enforces that. *)
               ()
           | None -> ()
         end)
       (segment_files ~dir)
   with Exit -> ());
  Obs.add c_replayed !applied;
  if !stop <> None then Obs.incr c_torn;
  (!applied, !stop)

let read ~dir ~from =
  let out = ref [] in
  let _, torn = replay ~dir ~from (fun payload -> out := payload :: !out) in
  (List.mapi (fun i payload -> (from + i, payload)) (List.rev !out), torn)

(* ---- Maintenance -------------------------------------------------- *)

let truncate_after ~dir ~lsn =
  List.iter
    (fun (start, path) ->
      if start >= lsn then Sys.remove path
      else
        let parsed = parse_segment ~start (read_file path) in
        let keep =
          List.filter (fun (l, _) -> l < lsn) parsed.ps_records
        in
        if List.length keep < List.length parsed.ps_records
           || parsed.ps_torn <> None
        then
          if keep = [] then Sys.remove path
          else begin
            let tmp = path ^ ".tmp" in
            let b = Buffer.create 4096 in
            List.iter (fun (_, payload) -> Record.add b payload) keep;
            Out_channel.with_open_bin tmp (fun oc -> Buffer.output_buffer oc b);
            Sys.rename tmp path
          end)
    (segment_files ~dir)

let drop_below ~dir ~lsn =
  let segments = segment_files ~dir in
  let rec go = function
    | (_, path) :: ((next_start, _) :: _ as rest) when next_start <= lsn ->
        (* Every record in this segment precedes [next_start], hence
           precedes [lsn]: safe to delete. *)
        Sys.remove path;
        go rest
    | _ -> ()
  in
  go segments
