module Event = Lockdoc_trace.Event
module Layout = Lockdoc_trace.Layout
module Srcloc = Lockdoc_trace.Srcloc
module Diag = Lockdoc_trace.Diag
module Trace = Lockdoc_trace.Trace
module Record = Lockdoc_db.Record
module Obs = Lockdoc_obs.Obs

let magic = "LDOCBIN1"

let default_segment_bytes = 64 * 1024

let c_segments = Obs.counter "stream.segments"
let c_events = Obs.counter "stream.events"
let c_recovered = Obs.counter "stream.recovered"

let is_binary s =
  let n = min (String.length s) (String.length magic) in
  n >= 4 && String.sub s 0 n = String.sub magic 0 n

let file_is_binary path =
  match open_in_bin path with
  | exception Sys_error _ -> false
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let n = min 8 (in_channel_length ic) in
          is_binary (really_input_string ic n))

(* Record opcodes. Interned strings carry explicit ids so that a
   skipped (corrupt) segment cannot shift the meaning of ids interned
   later — decoding degrades per-record instead of garbling the rest of
   the stream. *)
let op_intern = 0
let op_layout = 1
let op_alloc = 2
let op_free = 3
let op_acquire = 4
let op_release = 5
let op_mem = 6
let op_enter = 7
let op_exit = 8
let op_ctx = 9

let lock_kind_code = function
  | Event.Spinlock -> 0
  | Event.Rwlock -> 1
  | Event.Mutex -> 2
  | Event.Semaphore -> 3
  | Event.Rwsem -> 4
  | Event.Rcu -> 5
  | Event.Seqlock -> 6
  | Event.Pseudo -> 7

let lock_kind_of_code = function
  | 0 -> Event.Spinlock
  | 1 -> Event.Rwlock
  | 2 -> Event.Mutex
  | 3 -> Event.Semaphore
  | 4 -> Event.Rwsem
  | 5 -> Event.Rcu
  | 6 -> Event.Seqlock
  | 7 -> Event.Pseudo
  | c -> failwith (Printf.sprintf "bad lock kind code %d" c)

let ctx_code = function Event.Task -> 0 | Event.Softirq -> 1 | Event.Hardirq -> 2

let ctx_of_code = function
  | 0 -> Event.Task
  | 1 -> Event.Softirq
  | 2 -> Event.Hardirq
  | c -> failwith (Printf.sprintf "bad context code %d" c)

(* ---- Encoder ------------------------------------------------------ *)

type encoder = {
  emit : string -> unit;
  segment_bytes : int;
  buf : Buffer.t;  (* payload of the segment being built *)
  strings : (string, int) Hashtbl.t;
  mutable next_string : int;
  (* Delta registers; reset at each segment boundary so segments are
     self-contained modulo the string table. *)
  mutable e_ptr : int;
  mutable e_lock : int;
  mutable e_line : int;
  mutable e_pid : int;
  mutable closed : bool;
}

let encoder ?(segment_bytes = default_segment_bytes) emit =
  emit magic;
  {
    emit;
    segment_bytes;
    buf = Buffer.create (segment_bytes + 1024);
    strings = Hashtbl.create 256;
    next_string = 0;
    e_ptr = 0;
    e_lock = 0;
    e_line = 0;
    e_pid = 0;
    closed = false;
  }

let reset_registers e =
  e.e_ptr <- 0;
  e.e_lock <- 0;
  e.e_line <- 0;
  e.e_pid <- 0

let rotate e =
  if Buffer.length e.buf > 0 then begin
    let payload = Buffer.contents e.buf in
    e.emit (Record.header payload ^ payload);
    Buffer.clear e.buf;
    reset_registers e
  end

let guard_open e = if e.closed then invalid_arg "Codec: encoder is closed"

let intern e s =
  match Hashtbl.find_opt e.strings s with
  | Some id -> id
  | None ->
      let id = e.next_string in
      e.next_string <- id + 1;
      Hashtbl.replace e.strings s id;
      Varint.write_uint e.buf op_intern;
      Varint.write_uint e.buf id;
      Varint.write_uint e.buf (String.length s);
      Buffer.add_string e.buf s;
      id

let add_layout e layout =
  guard_open e;
  if Buffer.length e.buf >= e.segment_bytes then rotate e;
  let id = intern e (Layout.to_string layout) in
  Varint.write_uint e.buf op_layout;
  Varint.write_uint e.buf id

let add_event e ev =
  guard_open e;
  if Buffer.length e.buf >= e.segment_bytes then rotate e;
  let b = e.buf in
  (match ev with
  | Event.Alloc { ptr; size; data_type; subclass } ->
      (* Interning may append records; resolve ids before the opcode so
         the event record stays contiguous. *)
      let dt = intern e data_type in
      let sub = match subclass with None -> 0 | Some s -> intern e s + 1 in
      Varint.write_uint b op_alloc;
      Varint.write_int b (ptr - e.e_ptr);
      e.e_ptr <- ptr;
      Varint.write_uint b size;
      Varint.write_uint b dt;
      Varint.write_uint b sub
  | Event.Free { ptr } ->
      Varint.write_uint b op_free;
      Varint.write_int b (ptr - e.e_ptr);
      e.e_ptr <- ptr
  | Event.Lock_acquire { lock_ptr; kind; side; name; loc } ->
      let name_id = intern e name in
      let file_id = intern e loc.Srcloc.file in
      Varint.write_uint b op_acquire;
      Varint.write_int b (lock_ptr - e.e_lock);
      e.e_lock <- lock_ptr;
      Varint.write_uint b (lock_kind_code kind);
      Varint.write_uint b (match side with Event.Exclusive -> 0 | Event.Shared -> 1);
      Varint.write_uint b name_id;
      Varint.write_uint b file_id;
      Varint.write_int b (loc.Srcloc.line - e.e_line);
      e.e_line <- loc.Srcloc.line
  | Event.Lock_release { lock_ptr; loc } ->
      let file_id = intern e loc.Srcloc.file in
      Varint.write_uint b op_release;
      Varint.write_int b (lock_ptr - e.e_lock);
      e.e_lock <- lock_ptr;
      Varint.write_uint b file_id;
      Varint.write_int b (loc.Srcloc.line - e.e_line);
      e.e_line <- loc.Srcloc.line
  | Event.Mem_access { ptr; size; kind; loc } ->
      let file_id = intern e loc.Srcloc.file in
      Varint.write_uint b op_mem;
      Varint.write_int b (ptr - e.e_ptr);
      e.e_ptr <- ptr;
      Varint.write_uint b size;
      Varint.write_uint b (match kind with Event.Read -> 0 | Event.Write -> 1);
      Varint.write_uint b file_id;
      Varint.write_int b (loc.Srcloc.line - e.e_line);
      e.e_line <- loc.Srcloc.line
  | Event.Fun_enter { fn; loc } ->
      let fn_id = intern e fn in
      let file_id = intern e loc.Srcloc.file in
      Varint.write_uint b op_enter;
      Varint.write_uint b fn_id;
      Varint.write_uint b file_id;
      Varint.write_int b (loc.Srcloc.line - e.e_line);
      e.e_line <- loc.Srcloc.line
  | Event.Fun_exit { fn } ->
      let fn_id = intern e fn in
      Varint.write_uint b op_exit;
      Varint.write_uint b fn_id
  | Event.Ctx_switch { pid; kind } ->
      Varint.write_uint b op_ctx;
      Varint.write_int b (pid - e.e_pid);
      e.e_pid <- pid;
      Varint.write_uint b (ctx_code kind));
  Obs.incr c_events

let close_encoder e =
  guard_open e;
  rotate e;
  e.closed <- true

let encode_trace ?segment_bytes trace =
  let out = Buffer.create 4096 in
  let e = encoder ?segment_bytes (Buffer.add_string out) in
  List.iter (add_layout e) trace.Trace.layouts;
  Array.iter (add_event e) trace.Trace.events;
  close_encoder e;
  Buffer.contents out

(* ---- Decoder ------------------------------------------------------ *)

(* String ids and line numbers are small ints: hash them as themselves
   instead of through the polymorphic hash and compare. *)
module IntTbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash n = n land max_int
end)

type decoder = {
  mode : Trace.mode;
  file : string option;
  mutable head : string;  (* input before the magic is complete *)
  mutable seen_magic : bool;
  segments : Record.Reader.t;
  mutable dead : bool;  (* framing lost for good (bad magic / absurd length) *)
  table : string IntTbl.t;
  locs : Srcloc.t IntTbl.t IntTbl.t;
      (* file id -> line -> the one shared location; dropped when the
         id is interned again *)
  mutable rev_events : Event.t list;  (* drained by [events] *)
  mutable rev_layouts : Layout.t list;
  mutable rev_diags : Diag.t list;
  mutable n_events : int;  (* total decoded, labels diagnostics *)
  mutable finished : bool;
}

let decoder ?(mode = Trace.Strict) ?file () =
  {
    mode;
    file;
    head = "";
    seen_magic = false;
    segments = Record.Reader.create ();
    dead = false;
    table = IntTbl.create 256;
    locs = IntTbl.create 64;
    rev_events = [];
    rev_layouts = [];
    rev_diags = [];
    n_events = 0;
    finished = false;
  }

let report d kind msg =
  let diag = Diag.make ?file:d.file ~event:d.n_events kind msg in
  match d.mode with
  | Trace.Strict -> raise (Trace.Invalid diag)
  | Trace.Lenient ->
      Obs.incr c_recovered;
      d.rev_diags <- diag :: d.rev_diags

let resolve d id =
  match IntTbl.find d.table id with
  | s -> s
  | exception Not_found -> failwith (Printf.sprintf "unknown string id %d" id)

let intern d id s =
  IntTbl.replace d.table id s;
  IntTbl.remove d.locs id

let loc_of d file_id line =
  match IntTbl.find (IntTbl.find d.locs file_id) line with
  | loc -> loc
  | exception Not_found ->
      let loc = Srcloc.make (resolve d file_id) line in
      (match IntTbl.find d.locs file_id with
      | by_line -> IntTbl.replace by_line line loc
      | exception Not_found ->
          let by_line = IntTbl.create 64 in
          IntTbl.replace by_line line loc;
          IntTbl.replace d.locs file_id by_line);
      loc

(* An operand that does not parse: without a valid varint there is no
   way to find the next record boundary. *)
exception Torn of string

(* A record whose operand widths are unknown: resynchronise at the next
   segment, not mid-payload. *)
exception Unknown_opcode

(* Decode one segment payload. Returns normally even on damage: every
   anomaly is reported through [report] (which raises in Strict mode).
   Each record reads all its operands first, updating the delta
   registers, and only then resolves interned strings and codes. A
   [Torn] operand abandons the rest of the payload; a resolution
   [Failure] (say, an id whose intern record lived in a corrupt,
   skipped segment) loses only its own record, and later deltas stay
   meaningful. The payload is the [len] bytes of [s] at [off], decoded
   where they sit. *)
let decode_payload d s off len =
  let lim = off + len in
  let pos = ref off in
  (* Per-segment delta registers, mirroring the encoder's reset. *)
  let r_ptr = ref 0 and r_lock = ref 0 and r_line = ref 0 and r_pid = ref 0 in
  let uint () =
    match Varint.read_uint_at s ~lim pos with
    | v -> v
    | exception Failure msg -> raise (Torn msg)
  in
  let delta reg =
    match Varint.read_int_at s ~lim pos with
    | v ->
        let v = !reg + v in
        reg := v;
        v
    | exception Failure msg -> raise (Torn msg)
  in
  let emit ev =
    d.rev_events <- ev :: d.rev_events;
    d.n_events <- d.n_events + 1;
    Obs.incr c_events
  in
  let record op =
    if op = op_intern then begin
      let id = uint () in
      let n = uint () in
      if n < 0 || n > lim - !pos then raise (Torn "string length overruns segment");
      let str = String.sub s !pos n in
      pos := !pos + n;
      intern d id str
    end
    else if op = op_layout then
      let id = uint () in
      d.rev_layouts <- Layout.of_string (resolve d id) :: d.rev_layouts
    else if op = op_alloc then begin
      let ptr = delta r_ptr in
      let size = uint () in
      let dt = uint () in
      let sub = uint () in
      let subclass = if sub = 0 then None else Some (resolve d (sub - 1)) in
      emit (Event.Alloc { ptr; size; data_type = resolve d dt; subclass })
    end
    else if op = op_free then emit (Event.Free { ptr = delta r_ptr })
    else if op = op_acquire then begin
      let lock_ptr = delta r_lock in
      let kind = uint () in
      let side = uint () in
      let name = uint () in
      let file = uint () in
      let line = delta r_line in
      let side =
        match side with
        | 0 -> Event.Exclusive
        | 1 -> Event.Shared
        | c -> failwith (Printf.sprintf "bad side code %d" c)
      in
      emit
        (Event.Lock_acquire
           {
             lock_ptr;
             kind = lock_kind_of_code kind;
             side;
             name = resolve d name;
             loc = loc_of d file line;
           })
    end
    else if op = op_release then begin
      let lock_ptr = delta r_lock in
      let file = uint () in
      let line = delta r_line in
      emit (Event.Lock_release { lock_ptr; loc = loc_of d file line })
    end
    else if op = op_mem then begin
      let ptr = delta r_ptr in
      let size = uint () in
      let kind = uint () in
      let file = uint () in
      let line = delta r_line in
      let kind =
        match kind with
        | 0 -> Event.Read
        | 1 -> Event.Write
        | c -> failwith (Printf.sprintf "bad access code %d" c)
      in
      emit (Event.Mem_access { ptr; size; kind; loc = loc_of d file line })
    end
    else if op = op_enter then begin
      let fn = uint () in
      let file = uint () in
      let line = delta r_line in
      emit (Event.Fun_enter { fn = resolve d fn; loc = loc_of d file line })
    end
    else if op = op_exit then emit (Event.Fun_exit { fn = resolve d (uint ()) })
    else if op = op_ctx then begin
      let pid = delta r_pid in
      let kind = uint () in
      emit (Event.Ctx_switch { pid; kind = ctx_of_code kind })
    end
    else raise Unknown_opcode
  in
  let stop = ref false in
  while (not !stop) && !pos < lim do
    match uint () with
    | exception Torn msg ->
        report d Diag.Truncated_record ("segment record: " ^ msg);
        stop := true
    | op -> (
        match record op with
        | () -> ()
        | exception Torn msg ->
            report d Diag.Truncated_record ("segment record: " ^ msg);
            stop := true
        | exception Failure msg ->
            report d Diag.Malformed_field ("binary record: " ^ msg)
        | exception Unknown_opcode ->
            report d Diag.Unknown_tag
              (Printf.sprintf "unknown binary record opcode %d" op);
            stop := true)
  done

(* A bad checksum loses one segment; a bad length loses the framing
   for good. *)
let rec decode_segments d =
  match Record.Reader.next d.segments with
  | s, Record.Record { off; len } ->
      Obs.incr c_segments;
      decode_payload d s off len;
      decode_segments d
  | _, Record.Bad_crc { len } ->
      report d Diag.Malformed_field
        (Printf.sprintf "segment CRC mismatch (%d bytes skipped)" len);
      decode_segments d
  | _, Record.Bad_length len ->
      d.dead <- true;
      report d Diag.Truncated_record
        (Printf.sprintf "absurd segment length %d: torn or garbled frame" len)
  | _, (Record.Short_header | Record.Short_payload _) -> ()

let feed d chunk =
  if d.finished then invalid_arg "Codec: decoder is finished";
  (* Bytes of the magic still to come at the front of [chunk]. *)
  let need =
    if d.seen_magic then 0 else String.length magic - String.length d.head
  in
  if d.dead then ()  (* framing is lost; drop everything after the diag *)
  else if String.length chunk < need then d.head <- d.head ^ chunk
  else if need > 0 && d.head ^ String.sub chunk 0 need <> magic then begin
    d.dead <- true;
    report d Diag.Malformed_field "not a LDOCBIN1 binary trace (bad magic)"
  end
  else begin
    d.head <- "";
    d.seen_magic <- true;
    Record.Reader.feed d.segments ~off:need chunk;
    decode_segments d
  end

let events d =
  let evs = List.rev d.rev_events in
  d.rev_events <- [];
  evs

let layouts d = List.rev d.rev_layouts

let finish d =
  if not d.finished then begin
    d.finished <- true;
    let remaining = String.length d.head + Record.Reader.buffered d.segments in
    if (not d.dead) && not d.seen_magic then
      report d Diag.Truncated_record
        (Printf.sprintf "binary trace ends before the magic (%d bytes)"
           remaining)
    else if (not d.dead) && remaining > 0 then
      report d Diag.Truncated_record
        (Printf.sprintf "torn tail: %d trailing bytes are not a whole segment"
           remaining)
  end;
  List.rev d.rev_diags

(* The events array is filled straight from the decoder's newest-first
   list. Going through [events] would first build a reversed copy: one
   more cons cell per event, which outlives the minor heap and leaves
   the major heap with garbage the size of the list. *)
let decode_string ?mode ?file s =
  let d = decoder ?mode ?file () in
  feed d s;
  let diags = finish d in
  let events =
    match d.rev_events with
    | [] -> [||]
    | newest :: _ as rev ->
        let n = List.length rev in
        let a = Array.make n newest in
        List.iteri (fun i ev -> a.(n - 1 - i) <- ev) rev;
        a
  in
  ({ Trace.layouts = layouts d; Trace.events = events }, diags)
