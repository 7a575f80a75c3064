type fn = {
  fn_id : int;
  fn_name : string;
  fn_file : string;
  fn_start : int;
  fn_span : int;
}

(* Global registry: the simulated kernel's "source tree" is the same for
   every run, only coverage is per-run. Ids are dense, in declaration
   order, and index each run's coverage maps. *)
let registry : (string, fn) Hashtbl.t = Hashtbl.create 256

let declared = ref 0

let file_cursor : (string, int) Hashtbl.t = Hashtbl.create 32

let declare ~file ~span name =
  match Hashtbl.find_opt registry name with
  | Some fn ->
      if fn.fn_file <> file || fn.fn_span <> span then
        invalid_arg
          (Printf.sprintf
             "Source.declare: %S re-declared as %s(%d), already %s(%d)" name
             file span fn.fn_file fn.fn_span);
      fn
  | None ->
      let start = Option.value ~default:1 (Hashtbl.find_opt file_cursor file) in
      Hashtbl.replace file_cursor file (start + span + 2 (* blank + brace *));
      let fn =
        { fn_id = !declared; fn_name = name; fn_file = file; fn_start = start; fn_span = span }
      in
      incr declared;
      Hashtbl.replace registry name fn;
      fn

let find name = Hashtbl.find registry name

(* One byte map per function, indexed by [fn_id]: byte 0 is the
   "entered" flag, byte [1 + k] line [fn_start + k]. A map is allocated
   on the function's first mark in the run ([Bytes.empty] until then);
   functions declared after the run started grow the array. *)
type coverage = { mutable maps : Bytes.t array }

let coverage () = { maps = Array.make !declared Bytes.empty }

let map cov fn =
  let id = fn.fn_id in
  if id >= Array.length cov.maps then begin
    let grown = Array.make (max (id + 1) (2 * Array.length cov.maps)) Bytes.empty in
    Array.blit cov.maps 0 grown 0 (Array.length cov.maps);
    cov.maps <- grown
  end;
  let m = cov.maps.(id) in
  if Bytes.length m > 0 then m
  else begin
    let m = Bytes.make (fn.fn_span + 1) '\000' in
    cov.maps.(id) <- m;
    m
  end

(* Entering a function executes its straight-line prologue; GCOV would see
   most of the body run on the common path, so the first entry in a run
   marks the leading 3/4 of the span. Branchy tails are only marked when
   an instrumented operation's line cursor lands on them. *)
let mark_enter cov fn =
  let m = map cov fn in
  if Bytes.get m 0 = '\000' then begin
    Bytes.set m 0 '\001';
    Bytes.fill m 1 (min fn.fn_span (max 1 (fn.fn_span * 3 / 4))) '\001'
  end

(* Lines outside the span wrap into it. [mod] is negative for a line
   below [fn_start], hence the correction. *)
let mark_line cov fn line =
  if fn.fn_span > 0 then begin
    let off = (line - fn.fn_start) mod fn.fn_span in
    let off = if off < 0 then off + fn.fn_span else off in
    Bytes.set (map cov fn) (1 + off) '\001'
  end

type dir_report = {
  dir : string;
  lines_total : int;
  lines_covered : int;
  functions_total : int;
  functions_covered : int;
}

let dir_of_file file =
  match String.rindex_opt file '/' with
  | None -> "."
  | Some i -> String.sub file 0 i

let report cov ~dirs =
  let per_dir = Hashtbl.create 8 in
  List.iter
    (fun dir -> Hashtbl.replace per_dir dir (ref 0, ref 0, ref 0, ref 0))
    dirs;
  Hashtbl.iter
    (fun _name fn ->
      match Hashtbl.find_opt per_dir (dir_of_file fn.fn_file) with
      | None -> ()
      | Some (lt, lc, ft, fc) ->
          lt := !lt + fn.fn_span;
          incr ft;
          if fn.fn_id < Array.length cov.maps then begin
            let m = cov.maps.(fn.fn_id) in
            if Bytes.length m > 0 then begin
              if Bytes.get m 0 <> '\000' then incr fc;
              for k = 1 to fn.fn_span do
                if Bytes.get m k <> '\000' then incr lc
              done
            end
          end)
    registry;
  List.map
    (fun dir ->
      let lt, lc, ft, fc = Hashtbl.find per_dir dir in
      {
        dir;
        lines_total = !lt;
        lines_covered = !lc;
        functions_total = !ft;
        functions_covered = !fc;
      })
    dirs
