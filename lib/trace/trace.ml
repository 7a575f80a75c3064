type t = { layouts : Layout.t list; events : Event.t array }

type sink = { mutable rev_events : Event.t list; mutable n : int }

let sink () = { rev_events = []; n = 0 }

let emit s e =
  s.rev_events <- e :: s.rev_events;
  s.n <- s.n + 1

let emitted s = s.n

let finish ~layouts s =
  let events = Array.make s.n (Event.Free { ptr = 0 }) in
  (* rev_events holds the newest event first; fill from the back. *)
  let rec fill i = function
    | [] -> ()
    | e :: rest ->
        events.(i) <- e;
        fill (i - 1) rest
  in
  fill (s.n - 1) s.rev_events;
  { layouts; events }

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

let read_lines ?(mode = Strict) ?file lines =
  let diags = ref [] in
  let report d =
    count_anomaly d;
    match mode with
    | Strict -> raise (Invalid d)
    | Lenient ->
        Obs.incr c_recovered;
        diags := d :: !diags
  in
  let seen_types = Hashtbl.create 16 in
  let layouts, rev_events, _ =
    List.fold_left
      (fun (layouts, events, lineno) line ->
        let diag kind message =
          report (Diag.make ?file ~line:lineno kind message)
        in
        Obs.incr c_rows;
        if String.length line = 0 then (layouts, events, lineno + 1)
        else if String.length line >= 2 && String.sub line 0 2 = "T\t" then begin
          let spec = String.sub line 2 (String.length line - 2) in
          match Layout.of_string spec with
          | l ->
              if Hashtbl.mem seen_types l.Layout.ty_name then begin
                diag Diag.Duplicate_layout
                  ("layout for " ^ l.Layout.ty_name
                 ^ " already declared; keeping the first");
                (layouts, events, lineno + 1)
              end
              else begin
                Hashtbl.replace seen_types l.Layout.ty_name ();
                (l :: layouts, events, lineno + 1)
              end
          | exception Failure msg ->
              diag Diag.Malformed_field msg;
              (layouts, events, lineno + 1)
        end
        else begin
          let fields = String.split_on_char '\t' line in
          let tag = match fields with t :: _ -> t | [] -> "" in
          (match Event.arity_of_tag tag with
          | None ->
              diag Diag.Unknown_tag
                (Printf.sprintf "unknown record tag %S in line %S" tag line);
              (layouts, events, lineno + 1)
          | Some arity when List.length fields <> arity ->
              diag Diag.Truncated_record
                (Printf.sprintf "%s record has %d fields, expected %d: %S" tag
                   (List.length fields) arity line);
              (layouts, events, lineno + 1)
          | Some _ -> (
              match Event.of_line line with
              | ev -> (layouts, ev :: events, lineno + 1)
              | exception Failure msg ->
                  diag Diag.Malformed_field msg;
                  (layouts, events, lineno + 1)))
        end)
      ([], [], 1) lines
  in
  let t =
    { layouts = List.rev layouts; events = Array.of_list (List.rev rev_events) }
  in
  Obs.add c_events (Array.length t.events);
  Obs.add c_layouts (List.length t.layouts);
  (t, List.rev !diags)

(* Strict reading used to raise a bare [Failure] from deep inside the
   parser; callers now always get the file (when known) and line number. *)
let of_lines lines =
  match read_lines ~mode:Strict lines with
  | t, _ -> t
  | exception Invalid d -> failwith (Diag.to_string d)

let save path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun line ->
          output_string oc line;
          output_char oc '\n')
        (to_lines t))

let read_file_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec read acc =
        match input_line ic with
        | line -> read (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      read [])

let read ?(mode = Strict) path = read_lines ~mode ~file:path (read_file_lines path)

let count t pred = Array.fold_left (fun acc e -> if pred e then acc + 1 else acc) 0 t.events
