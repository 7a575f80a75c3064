type t = { layouts : Layout.t list; events : Event.t array }

(* A growable array: emitting stores the event in place, and [finish]
   copies the filled prefix out once. *)
type sink = { mutable buf : Event.t array; mutable n : int }

let placeholder = Event.Free { ptr = 0 }

let sink () = { buf = Array.make 1024 placeholder; n = 0 }

let emit s e =
  if s.n = Array.length s.buf then begin
    let buf = Array.make (2 * s.n) placeholder in
    Array.blit s.buf 0 buf 0 s.n;
    s.buf <- buf
  end;
  s.buf.(s.n) <- e;
  s.n <- s.n + 1

let emitted s = s.n

let finish ~layouts s = { layouts; events = Array.sub s.buf 0 s.n }

let to_lines t =
  let layout_lines = List.map (fun l -> "T\t" ^ Layout.to_string l) t.layouts in
  layout_lines @ List.map Event.to_line (Array.to_list t.events)

(* {2 Validating reader}

   The reader never throws away a whole file because of one bad line: each
   line either parses, or produces a {!Diag.t} classifying what went wrong.
   [Strict] mode raises on the first anomaly (with file/line context);
   [Lenient] mode skips the offending line and keeps reading. *)

type mode = Strict | Lenient

exception Invalid of Diag.t

module Obs = Lockdoc_obs.Obs

(* Ingestion metrics (no-ops unless metrics are enabled). Anomalies
   additionally count under a per-Diag-class name, created on first
   occurrence — anomalies are rare, so the registry lookup is off the
   hot path. *)
let c_rows = Obs.counter "trace.rows"
let c_events = Obs.counter "trace.events"
let c_layouts = Obs.counter "trace.layouts"
let c_recovered = Obs.counter "trace.recovered"

let count_anomaly d =
  if Obs.enabled () then
    Obs.incr (Obs.counter ("trace.anomaly." ^ Diag.kind_to_string d.Diag.d_kind))

let () =
  Printexc.register_printer (function
    | Invalid d -> Some (Diag.to_string d)
    | _ -> None)

(* One read: the mode, the scanner's intern table, and what has been
   read so far. [step] takes one line as a slice of [s] and numbers it,
   blank lines included. *)
type reader = {
  r_mode : mode;
  r_file : string option;
  r_scanner : Event.scanner;
  r_sink : sink;
  r_seen_types : (string, unit) Hashtbl.t;
  mutable r_layouts_rev : Layout.t list;
  mutable r_diags_rev : Diag.t list;
  mutable r_lineno : int;
}

let reader mode file =
  {
    r_mode = mode;
    r_file = file;
    r_scanner = Event.scanner ();
    r_sink = sink ();
    r_seen_types = Hashtbl.create 16;
    r_layouts_rev = [];
    r_diags_rev = [];
    r_lineno = 1;
  }

let report r d =
  count_anomaly d;
  match r.r_mode with
  | Strict -> raise (Invalid d)
  | Lenient ->
      Obs.incr c_recovered;
      r.r_diags_rev <- d :: r.r_diags_rev

let diag r lineno kind message =
  report r (Diag.make ?file:r.r_file ~line:lineno kind message)

let layout_row r lineno spec =
  match Layout.of_string spec with
  | l ->
      if Hashtbl.mem r.r_seen_types l.Layout.ty_name then
        diag r lineno Diag.Duplicate_layout
          ("layout for " ^ l.Layout.ty_name
         ^ " already declared; keeping the first")
      else begin
        Hashtbl.replace r.r_seen_types l.Layout.ty_name ();
        r.r_layouts_rev <- l :: r.r_layouts_rev
      end
  | exception Failure msg -> diag r lineno Diag.Malformed_field msg

(* The reference path for an event line the scanner declined, and the
   only producer of event-line diagnostics. *)
let reference_event r lineno line =
  let fields = String.split_on_char '\t' line in
  let tag = match fields with t :: _ -> t | [] -> "" in
  match Event.arity_of_tag tag with
  | None ->
      diag r lineno Diag.Unknown_tag
        (Printf.sprintf "unknown record tag %S in line %S" tag line)
  | Some arity when List.length fields <> arity ->
      diag r lineno Diag.Truncated_record
        (Printf.sprintf "%s record has %d fields, expected %d: %S" tag
           (List.length fields) arity line)
  | Some _ -> (
      match Event.of_line line with
      | ev -> emit r.r_sink ev
      | exception Failure msg -> diag r lineno Diag.Malformed_field msg)

let is_layout_row s i j = j - i >= 2 && s.[i] = 'T' && s.[i + 1] = '\t'

let step r s start stop =
  Obs.incr c_rows;
  let lineno = r.r_lineno in
  r.r_lineno <- lineno + 1;
  if is_layout_row s start stop then
    layout_row r lineno (String.sub s (start + 2) (stop - start - 2))
  else if stop > start then
    match Event.scan r.r_scanner s start stop with
    | Some ev -> emit r.r_sink ev
    | None ->
        reference_event r lineno
          (if start = 0 && stop = String.length s then s
           else String.sub s start (stop - start))

let finish_read r =
  let t = finish ~layouts:(List.rev r.r_layouts_rev) r.r_sink in
  Obs.add c_events (Array.length t.events);
  Obs.add c_layouts (List.length t.layouts);
  (t, List.rev r.r_diags_rev)

let read_lines ?(mode = Strict) ?file lines =
  let r = reader mode file in
  List.iter (fun line -> step r line 0 (String.length line)) lines;
  finish_read r

(* Strict reading used to raise a bare [Failure] from deep inside the
   parser; callers now always get the file (when known) and line number. *)
let of_lines lines =
  match read_lines ~mode:Strict lines with
  | t, _ -> t
  | exception Invalid d -> failwith (Diag.to_string d)

(* One buffer, written out whenever it passes [chunk] bytes. *)
let save path t =
  let chunk = 1 lsl 16 in
  let b = Buffer.create (chunk + 1024) in
  Out_channel.with_open_text path (fun oc ->
      let line_done () =
        Buffer.add_char b '\n';
        if Buffer.length b >= chunk then begin
          Buffer.output_buffer oc b;
          Buffer.clear b
        end
      in
      List.iter
        (fun l ->
          Buffer.add_string b "T\t";
          Buffer.add_string b (Layout.to_string l);
          line_done ())
        t.layouts;
      Array.iter
        (fun e ->
          Event.add_line b e;
          line_done ())
        t.events;
      Buffer.output_buffer oc b)

(* The whole file in one string, its lines walked by index: a line is
   the bytes up to the next '\n' (kept '\r' and all), and a final '\n'
   does not start another line. *)
let rec line_end s i n =
  if i = n || String.unsafe_get s i = '\n' then i else line_end s (i + 1) n

let read_string ?(mode = Strict) ?file s =
  let r = reader mode file in
  let n = String.length s in
  let rec lines i =
    if i < n then begin
      let j = line_end s i n in
      step r s i j;
      lines (j + 1)
    end
  in
  lines 0;
  finish_read r

let read ?mode path =
  read_string ?mode ~file:path (In_channel.with_open_text path In_channel.input_all)

let rows s =
  let n = String.length s in
  let rec split i layouts events =
    if i >= n then List.rev_append layouts (List.rev events)
    else
      let j = line_end s i n in
      if j = i then split (j + 1) layouts events
      else
        let line = String.sub s i (j - i) in
        if is_layout_row s i j then split (j + 1) (line :: layouts) events
        else split (j + 1) layouts (line :: events)
  in
  split 0 [] []

let count t pred = Array.fold_left (fun acc e -> if pred e then acc + 1 else acc) 0 t.events
