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

(* String ids, lines and pids are small dense ints in the traces the
   encoder writes, so what the decoder derives from them lives in arrays
   indexed by the int itself. An operand outside [0, dense) — a garbled
   id, a negative line (lines are delta-coded), a huge pid — goes to a
   hash table instead, or is not shared at all, and decodes exactly as
   a dense one does. *)
let dense = 1 lsl 16
let is_dense i = 0 <= i && i < dense

(* Line-array slots the decoder allocates over a whole decode; past
   this, locations go to the hash tables too. A re-interned id does not
   give its slots back, so the bound holds for what a crafted trace can
   make the arrays take, live or dropped (many file ids each used at one
   large line, or one id re-interned and used at one large line again
   and again): 8 MB. The scale-4 mix (40 files, lines up to 793) needs
   under 16k. *)
let max_loc_slots = 1 lsl 20

(* The ids and lines outside the arrays are ints too: hash them as
   themselves instead of through the polymorphic hash and compare. *)
module IntTbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash n = n land max_int
end)

(* Empty slots of the arrays below; compared physically. *)
let no_loc = Srcloc.make "" (-1)
let no_event = Event.Free { ptr = 0 }

(* What the decoder knows of one interned string id. An [intern] record
   for the id replaces its entry, and with it every location and event
   derived from the old string. *)
type entry = {
  str : string;
  mutable lines : Srcloc.t array;
      (* as a file: dense line -> the one shared location, or [no_loc] *)
  far_lines : Srcloc.t IntTbl.t;  (* as a file: every other line *)
  mutable exit : Event.t;  (* as a function: its one [Fun_exit], or [no_event] *)
  mutable enter : Event.t;  (* as a function: its last [Fun_enter], or [no_event] *)
}

let no_entry =
  { str = ""; lines = [||]; far_lines = IntTbl.create 1; exit = no_event; enter = no_event }

(* Decoded events are stored in fixed-size chunks as they are decoded
   and copied into one array when drained, so that an event costs its
   own block and two array slots. *)
let chunk_len = 1024

type decoder = {
  mode : Trace.mode;
  file : string option;
  mutable head : string;  (* input before the magic is complete *)
  mutable seen_magic : bool;
  segments : Record.Reader.t;
  mutable dead : bool;  (* framing lost for good (bad magic / absurd length) *)
  mutable entries : entry array;  (* dense id -> entry, or [no_entry] *)
  far_entries : entry IntTbl.t;  (* every other id *)
  mutable loc_slots : int;  (* line-array slots allocated so far *)
  mutable switches : Event.t array;
      (* 3 * dense pid + context code -> its one [Ctx_switch], or [no_event] *)
  mutable chunks : Event.t array list;  (* full chunks, newest first *)
  mutable chunk : Event.t array;  (* the chunk being filled *)
  mutable fill : int;  (* events in [chunk] *)
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
    entries = [||];
    far_entries = IntTbl.create 16;
    loc_slots = 0;
    switches = [||];
    chunks = [];
    chunk = Array.make chunk_len no_event;
    fill = 0;
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

(* The length an array of length [len] grows to so that it holds index
   [i] ([i < limit]). *)
let grown_length ~limit len i = if i < len then len else min limit (max (i + 1) (2 * len))

(* [a] grown to hold index [i], new slots [empty]. *)
let grown ~limit a i empty =
  if i < Array.length a then a
  else begin
    let b = Array.make (grown_length ~limit (Array.length a) i) empty in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let entry d id =
  let e =
    if not (is_dense id) then
      match IntTbl.find d.far_entries id with e -> e | exception Not_found -> no_entry
    else if id < Array.length d.entries then Array.unsafe_get d.entries id
    else no_entry
  in
  if e == no_entry then failwith (Printf.sprintf "unknown string id %d" id) else e

let resolve d id = (entry d id).str

let intern d id str =
  let e =
    { str; lines = [||]; far_lines = IntTbl.create 1; exit = no_event; enter = no_event }
  in
  if is_dense id then begin
    d.entries <- grown ~limit:dense d.entries id no_entry;
    d.entries.(id) <- e
  end
  else IntTbl.replace d.far_entries id e

(* The one location of [line] in the file of entry [f]. *)
let loc_in d f line =
  if is_dense line && line < Array.length f.lines
     && Array.unsafe_get f.lines line != no_loc
  then Array.unsafe_get f.lines line
  else
    match IntTbl.find f.far_lines line with
    | loc -> loc
    | exception Not_found ->
        let loc = Srcloc.make f.str line in
        let len = Array.length f.lines in
        let added = grown_length ~limit:dense len line - len in
        if is_dense line && d.loc_slots + added <= max_loc_slots then begin
          f.lines <- grown ~limit:dense f.lines line no_loc;
          f.lines.(line) <- loc;
          d.loc_slots <- d.loc_slots + added
        end
        else IntTbl.replace f.far_lines line loc;
        loc

let loc_of d file_id line = loc_in d (entry d file_id) line

let fun_exit d fn_id =
  let e = entry d fn_id in
  if e.exit == no_event then e.exit <- Event.Fun_exit { fn = e.str };
  e.exit

(* A function is entered from one location in the traces ksim writes,
   so keeping its last [Fun_enter] shares all of them. *)
let fun_enter d fn_id file_id line =
  let loc = loc_of d file_id line in
  let e = entry d fn_id in
  match e.enter with
  | Event.Fun_enter { loc = l; _ } when l == loc -> e.enter
  | _ ->
      let ev = Event.Fun_enter { fn = e.str; loc } in
      e.enter <- ev;
      ev

let ctx_switch d pid code =
  let kind = ctx_of_code code in
  if not (is_dense pid) then Event.Ctx_switch { pid; kind }
  else begin
    let i = (3 * pid) + code in
    if i >= Array.length d.switches || Array.unsafe_get d.switches i == no_event
    then begin
      d.switches <- grown ~limit:(3 * dense) d.switches i no_event;
      d.switches.(i) <- Event.Ctx_switch { pid; kind }
    end;
    Array.unsafe_get d.switches i
  end

let emit d ev =
  if d.fill = chunk_len then begin
    d.chunks <- d.chunk :: d.chunks;
    d.chunk <- Array.make chunk_len no_event;
    d.fill <- 0
  end;
  Array.unsafe_set d.chunk d.fill ev;
  d.fill <- d.fill + 1;
  d.n_events <- d.n_events + 1;
  Obs.incr c_events

(* The events decoded since the last drain, in stream order. *)
let drain d =
  let n = (List.length d.chunks * chunk_len) + d.fill in
  let a = Array.make n no_event in
  Array.blit d.chunk 0 a (n - d.fill) d.fill;
  List.iteri
    (fun i c -> Array.blit c 0 a (n - d.fill - ((i + 1) * chunk_len)) chunk_len)
    d.chunks;
  Array.fill d.chunk 0 d.fill no_event;
  d.chunks <- [];
  d.fill <- 0;
  a

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
      let data_type = resolve d dt in
      emit d (Event.Alloc { ptr; size; data_type; subclass })
    end
    else if op = op_free then emit d (Event.Free { ptr = delta r_ptr })
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
      let loc = loc_of d file line in
      let name = resolve d name in
      let kind = lock_kind_of_code kind in
      emit d (Event.Lock_acquire { lock_ptr; kind; side; name; loc })
    end
    else if op = op_release then begin
      let lock_ptr = delta r_lock in
      let file = uint () in
      let line = delta r_line in
      emit d (Event.Lock_release { lock_ptr; loc = loc_of d file line })
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
      emit d (Event.Mem_access { ptr; size; kind; loc = loc_of d file line })
    end
    else if op = op_enter then begin
      let fn = uint () in
      let file = uint () in
      let line = delta r_line in
      emit d (fun_enter d fn file line)
    end
    else if op = op_exit then emit d (fun_exit d (uint ()))
    else if op = op_ctx then begin
      let pid = delta r_pid in
      let kind = uint () in
      emit d (ctx_switch d pid kind)
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

let events d = Array.to_list (drain d)

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

let decode_string ?mode ?file s =
  let d = decoder ?mode ?file () in
  feed d s;
  let diags = finish d in
  ({ Trace.layouts = layouts d; Trace.events = drain d }, diags)
