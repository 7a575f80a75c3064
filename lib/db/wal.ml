(* Segmented, CRC-framed write-ahead log.

   A record is [len:int32 LE][crc32:int32 LE][payload]; a segment file
   "wal-%010d.seg" holds consecutive records starting at the LSN in its
   name. Readers treat any framing violation — short header, short
   payload, checksum mismatch, absurd length — as a torn tail and stop
   there rather than failing: everything before the first bad byte is
   trusted, nothing after it is. *)

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

(* ---- CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) -------------- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF

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
  let len = String.length payload in
  let hdr = Bytes.create 8 in
  Bytes.set_int32_le hdr 0 (Int32.of_int len);
  Bytes.set_int32_le hdr 4 (Int32.of_int (crc32 payload));
  Buffer.add_bytes w.w_buf hdr;
  Buffer.add_string w.w_buf payload;
  Obs.incr c_appends;
  Obs.add c_bytes (8 + len);
  w.w_seg_bytes <- w.w_seg_bytes + 8 + len;
  w.w_lsn <- w.w_lsn + 1;
  flush w

let close w =
  flush w;
  close_out w.w_oc

(* ---- Reader ------------------------------------------------------- *)

(* Longest record we will believe a header about. Anything larger is a
   corrupt length field, not a record. *)
let max_record = 1 lsl 26

type parsed = {
  ps_records : (int * string) list;  (* (lsn, payload), ascending *)
  ps_torn : string option;  (* why parsing stopped, if it did *)
}

let parse_segment ~start content =
  let n = String.length content in
  let records = ref [] in
  let lsn = ref start in
  let pos = ref 0 in
  let torn = ref None in
  (try
     while !pos < n do
       if !pos + 8 > n then begin
         torn := Some (Printf.sprintf "torn header at offset %d" !pos);
         raise Exit
       end;
       let len = Int32.to_int (String.get_int32_le content !pos) in
       let crc =
         Int32.to_int (String.get_int32_le content (!pos + 4)) land 0xFFFFFFFF
       in
       if len < 0 || len > max_record then begin
         torn :=
           Some (Printf.sprintf "corrupt length %d at offset %d" len !pos);
         raise Exit
       end;
       if !pos + 8 + len > n then begin
         torn :=
           Some
             (Printf.sprintf "torn record at offset %d (%d of %d bytes)" !pos
                (n - !pos - 8) len);
         raise Exit
       end;
       let payload = String.sub content (!pos + 8) len in
       if crc32 payload <> crc then begin
         torn :=
           Some
             (Printf.sprintf "checksum mismatch at offset %d (lsn %d)" !pos
                !lsn);
         raise Exit
       end;
       records := (!lsn, payload) :: !records;
       incr lsn;
       pos := !pos + 8 + len
     done
   with Exit -> ());
  { ps_records = List.rev !records; ps_torn = !torn }

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
            Out_channel.with_open_bin tmp (fun oc ->
                List.iter
                  (fun (_, payload) ->
                    let hdr = Bytes.create 8 in
                    Bytes.set_int32_le hdr 0
                      (Int32.of_int (String.length payload));
                    Bytes.set_int32_le hdr 4 (Int32.of_int (crc32 payload));
                    Out_channel.output_bytes oc hdr;
                    Out_channel.output_string oc payload)
                  keep);
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
