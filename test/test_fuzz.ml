(* Corruption fuzzing of the ingestion pipeline.

   For every isolated workload family and a bank of pinned corruption
   seeds: corrupting the textual trace must (a) actually alter it, (b)
   never make the lenient reader or importer raise, and (c) always
   surface at least one anomaly. The uncorrupted traces must be
   spotless, and mining rules from them must not depend on the mode.

   The default run keeps the seed bank small so `dune runtest` stays
   fast; `dune build @fuzz` (or LOCKDOC_FUZZ_SEEDS=n) widens it to the
   full pinned range. *)

module Trace = Lockdoc_trace.Trace
module Check = Lockdoc_trace.Check
module Diag = Lockdoc_trace.Diag
module Corrupt = Lockdoc_trace.Corrupt
module Import = Lockdoc_db.Import
module Wal = Lockdoc_db.Wal
module Codec = Lockdoc_stream.Codec
module Run = Lockdoc_ksim.Run
module Dataset = Lockdoc_core.Dataset
module Derivator = Lockdoc_core.Derivator
module Report = Lockdoc_core.Report

let check = Alcotest.check

(* Metrics on for the whole suite: the golden-output comparisons below
   double as evidence that recording never leaks into analysis bytes. *)
let () = Lockdoc_obs.Obs.set_enabled true

let n_seeds =
  match Sys.getenv_opt "LOCKDOC_FUZZ_SEEDS" with
  | Some s -> (try max 1 (int_of_string s) with Failure _ -> 10)
  | None -> 10

(* One simulator run per family, shared across all seeds. *)
let traces =
  lazy
    (List.map
       (fun name -> (name, Run.workload_trace ~seed:11 name))
       Run.workload_names)

let test_clean_baseline () =
  List.iter
    (fun (name, trace) ->
      let lines = Trace.to_lines trace in
      let reparsed, reader_diags = Trace.read_lines ~mode:Trace.Lenient lines in
      check Alcotest.int (name ^ ": reader diags") 0 (List.length reader_diags);
      check Alcotest.int (name ^ ": check diags") 0
        (List.length (Check.run reparsed));
      let store_s, strict = Import.run ~mode:Import.Strict reparsed in
      let store_l, len = Import.run ~mode:Import.Lenient reparsed in
      check Alcotest.int (name ^ ": anomalies") 0 (Import.anomaly_total strict);
      check Alcotest.bool (name ^ ": stats agree") true (strict = len);
      (* Mined rules must not depend on the mode either. *)
      let mine store =
        Report.mined_to_json (Derivator.derive_all (Dataset.of_store store))
      in
      check Alcotest.string (name ^ ": mined rules agree") (mine store_s)
        (mine store_l))
    (Lazy.force traces)

let test_corruption_recovery () =
  List.iter
    (fun (name, trace) ->
      let lines = Trace.to_lines trace in
      for seed = 0 to n_seeds - 1 do
        let id = Printf.sprintf "%s/seed %d" name seed in
        let lines', ops = Corrupt.corrupt ~seed lines in
        check Alcotest.bool (id ^ ": altered") true (lines' <> lines);
        match
          let t, reader_diags = Trace.read_lines ~mode:Trace.Lenient lines' in
          let store, stats = Import.run ~mode:Import.Lenient t in
          (* Whatever survived recovery must also analyse: derivation is
             exercised on degraded inputs, not only on clean traces. *)
          ignore (Derivator.derive_all (Dataset.of_store store));
          List.length reader_diags + Import.anomaly_total stats
        with
        | anomalies ->
            if anomalies = 0 then
              Alcotest.failf "%s: no anomaly reported for [%s]" id
                (String.concat "; " (List.map Corrupt.describe ops))
        | exception e ->
            Alcotest.failf "%s: lenient pipeline raised %s for [%s]" id
              (Printexc.to_string e)
              (String.concat "; " (List.map Corrupt.describe ops))
      done)
    (Lazy.force traces)

(* ---- Binary-format corruption family ------------------------------

   The packed (LDOCBIN1) form gets its own matrix: segment truncation,
   a flipped bit in a frame's length prefix, and a payload garble with
   the CRC recomputed to match (defeating the framing layer so
   detection falls to record-level validation). The lenient decoder
   must never raise, damage the framing can see must surface a [Diag],
   CRC-fixed damage must at least visibly alter the decode, and
   whatever is recovered must still run the lenient importer. *)

(* [(start, total_bytes)] of each [len][crc][payload] frame after the
   8-byte magic. *)
let frame_bounds packed =
  let rec go off acc =
    if off + 8 > String.length packed then List.rev acc
    else
      let len = Int32.to_int (String.get_int32_le packed off) in
      if len <= 0 || off + 8 + len > String.length packed then List.rev acc
      else go (off + 8 + len) ((off, 8 + len) :: acc)
  in
  go 8 []

let set_le32 b off v = Bytes.set_int32_le b off (Int32.of_int v)

(* Cut strictly inside a frame: a torn tail, never a clean EOF. *)
let op_truncate packed ~seed =
  let frames = frame_bounds packed in
  let start, total = List.nth frames (seed mod List.length frames) in
  let cut = start + 1 + ((seed * 7) mod (total - 1)) in
  (String.sub packed 0 cut, "truncated segment")

(* Flip one bit of a frame's 4-byte length prefix. *)
let op_flip_length packed ~seed =
  let frames = frame_bounds packed in
  let start, _ = List.nth frames (seed mod List.length frames) in
  let b = Bytes.of_string packed in
  let pos = start + (seed mod 4) in
  Bytes.set b pos (Char.chr (Char.code packed.[pos] lxor (1 lsl (seed mod 7))));
  (Bytes.to_string b, "flipped length prefix")

(* Garble one payload byte and recompute the CRC so framing accepts
   it. The first frame carries the string table (layout specs and
   early interns), so low seeds hit exactly the "garbled string table"
   case; later ones land in event payloads. *)
let op_garble_crc_fixed packed ~seed =
  let frames = frame_bounds packed in
  let start, total = List.nth frames (seed mod List.length frames) in
  let len = total - 8 in
  let b = Bytes.of_string packed in
  let pos = start + 8 + ((seed * 13) mod len) in
  Bytes.set b pos (Char.chr (Char.code packed.[pos] lxor (1 lsl (seed mod 8))));
  let payload = Bytes.sub_string b (start + 8) len in
  set_le32 b (start + 4) (Wal.crc32 payload);
  (Bytes.to_string b, "garbled payload, CRC fixed up")

let test_binary_corruption () =
  List.iter
    (fun (name, trace) ->
      (* Small segments so every family packs to several frames and the
         seeded offsets spread across them. *)
      let packed = Codec.encode_trace ~segment_bytes:2048 trace in
      let clean_lines =
        let t, diags = Codec.decode_string ~mode:Trace.Lenient packed in
        check Alcotest.int (name ^ ": clean decode diags") 0
          (List.length diags);
        Trace.to_lines t
      in
      check Alcotest.string (name ^ ": clean decode") ""
        (if clean_lines = Trace.to_lines trace then "" else "diverges");
      for seed = 0 to n_seeds - 1 do
        let op =
          match seed mod 3 with
          | 0 -> op_truncate
          | 1 -> op_flip_length
          | _ -> op_garble_crc_fixed
        in
        let packed', what = op packed ~seed in
        let crc_fixed = seed mod 3 = 2 in
        let id = Printf.sprintf "%s/seed %d [%s]" name seed what in
        check Alcotest.bool (id ^ ": altered") true (packed' <> packed);
        match Codec.decode_string ~mode:Trace.Lenient packed' with
        | recovered, diags ->
            (* Framing-visible damage must surface a Diag; CRC-fixed
               damage may instead surface as a visible content change
               (record-level validation catches the rest). *)
            let detected =
              diags <> []
              || (crc_fixed && Trace.to_lines recovered <> clean_lines)
            in
            if not detected then
              Alcotest.failf "%s: damage neither diagnosed nor visible" id;
            (* Whatever survived must still import leniently. *)
            (match Import.run ~mode:Import.Lenient recovered with
            | _ -> ()
            | exception e ->
                Alcotest.failf "%s: lenient import raised %s on recovery" id
                  (Printexc.to_string e))
        | exception e ->
            Alcotest.failf "%s: lenient decoder raised %s" id
              (Printexc.to_string e)
      done)
    (Lazy.force traces)

let () =
  Alcotest.run "fuzz"
    [
      ( "ingestion",
        [
          Alcotest.test_case "clean baselines" `Quick test_clean_baseline;
          Alcotest.test_case
            (Printf.sprintf "corruption recovery (%d seeds)" n_seeds)
            `Slow test_corruption_recovery;
          Alcotest.test_case
            (Printf.sprintf "binary corruption recovery (%d seeds)" n_seeds)
            `Slow test_binary_corruption;
        ] );
    ]
