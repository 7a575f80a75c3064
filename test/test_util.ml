(* Unit and property tests for the utility kit: PRNG, statistics, growable
   vectors and table rendering. *)

module Prng = Lockdoc_util.Prng
module Stats = Lockdoc_util.Stats
module Vec = Lockdoc_util.Vec
module Tablefmt = Lockdoc_util.Tablefmt
module Fnv = Lockdoc_util.Fnv
module Numarg = Lockdoc_util.Numarg

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* {2 Prng} *)

let test_prng_deterministic () =
  let a = Prng.of_int 1234 and b = Prng.of_int 1234 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.of_int 1 and b = Prng.of_int 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Prng.next_int64 a <> Prng.next_int64 b then differs := true
  done;
  check Alcotest.bool "different seeds diverge" true !differs

let test_prng_copy () =
  let a = Prng.of_int 99 in
  ignore (Prng.next_int64 a);
  let b = Prng.copy a in
  check Alcotest.int64 "copy continues identically" (Prng.next_int64 a)
    (Prng.next_int64 b)

let test_prng_split_independent () =
  let a = Prng.of_int 7 in
  let b = Prng.split a in
  (* The split stream must not equal the parent's continuation. *)
  let pa = Prng.next_int64 a and pb = Prng.next_int64 b in
  check Alcotest.bool "split differs from parent" true (pa <> pb)

let test_prng_weighted () =
  let rng = Prng.of_int 3 in
  for _ = 1 to 200 do
    let x = Prng.weighted rng [ (1, `A); (0, `B) ] in
    check Alcotest.bool "zero-weight choice never picked" true (x = `A)
  done

let test_prng_shuffle_permutation () =
  let rng = Prng.of_int 5 in
  let arr = Array.init 20 Fun.id in
  Prng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "shuffle is a permutation"
    (Array.init 20 Fun.id) sorted

let prop_int_bounds =
  QCheck.Test.make ~name:"Prng.int stays within bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Prng.of_int seed in
      let x = Prng.int rng bound in
      x >= 0 && x < bound)

let prop_int_in_bounds =
  QCheck.Test.make ~name:"Prng.int_in inclusive bounds" ~count:500
    QCheck.(triple small_int (int_range (-50) 50) (int_range 0 100))
    (fun (seed, lo, span) ->
      let rng = Prng.of_int seed in
      let hi = lo + span in
      let x = Prng.int_in rng lo hi in
      x >= lo && x <= hi)

let prop_float_bounds =
  QCheck.Test.make ~name:"Prng.float stays within bounds" ~count:500
    QCheck.(pair small_int (float_range 0.001 100.))
    (fun (seed, bound) ->
      let rng = Prng.of_int seed in
      let x = Prng.float rng bound in
      x >= 0. && x < bound)

(* {2 Stats} *)

let test_mean () =
  check (Alcotest.float 1e-9) "mean" 2. (Stats.mean [ 1.; 2.; 3. ]);
  check (Alcotest.float 1e-9) "mean of empty" 0. (Stats.mean [])

let test_percentage () =
  check (Alcotest.float 1e-9) "50%" 50. (Stats.percentage 1 2);
  check (Alcotest.float 1e-9) "whole zero" 0. (Stats.percentage 5 0)

let test_percentile () =
  let xs = [ 5.; 1.; 3.; 2.; 4. ] in
  check (Alcotest.float 1e-9) "median" 3. (Stats.percentile 0.5 xs);
  check (Alcotest.float 1e-9) "max" 5. (Stats.percentile 1.0 xs);
  check (Alcotest.float 1e-9) "min-ish" 1. (Stats.percentile 0.0 xs)

let test_counter () =
  let c = Stats.counter () in
  Stats.incr c "a";
  Stats.incr c "a";
  Stats.add c "b" 3;
  check Alcotest.int "count a" 2 (Stats.count c "a");
  check Alcotest.int "count b" 3 (Stats.count c "b");
  check Alcotest.int "count missing" 0 (Stats.count c "zz");
  check Alcotest.int "total" 5 (Stats.total c);
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "alist sorted" [ ("a", 2); ("b", 3) ] (Stats.to_alist c)

(* {2 Vec} *)

let test_vec_basic () =
  let v = Vec.create () in
  check Alcotest.int "empty length" 0 (Vec.length v);
  let i0 = Vec.push v "x" in
  let i1 = Vec.push v "y" in
  check Alcotest.int "index 0" 0 i0;
  check Alcotest.int "index 1" 1 i1;
  check Alcotest.string "get" "y" (Vec.get v 1);
  Vec.set v 0 "z";
  check Alcotest.string "set" "z" (Vec.get v 0);
  check (Alcotest.list Alcotest.string) "to_list" [ "z"; "y" ] (Vec.to_list v)

let test_vec_bounds () =
  let v = Vec.create () in
  ignore (Vec.push v 1);
  Alcotest.check_raises "negative index" (Invalid_argument "Vec: index out of bounds")
    (fun () -> ignore (Vec.get v (-1)));
  Alcotest.check_raises "index past end" (Invalid_argument "Vec: index out of bounds")
    (fun () -> ignore (Vec.get v 1))

let test_vec_growth () =
  let v = Vec.create () in
  for i = 0 to 999 do
    ignore (Vec.push v i)
  done;
  check Alcotest.int "length" 1000 (Vec.length v);
  check Alcotest.int "fold" (999 * 1000 / 2) (Vec.fold ( + ) 0 v);
  check Alcotest.bool "exists" true (Vec.exists (fun x -> x = 500) v);
  check (Alcotest.option Alcotest.int) "find_opt" (Some 77)
    (Vec.find_opt (fun x -> x = 77) v)

(* {2 Fnv} *)

(* Canonical FNV-1a 32-bit vectors, plus the filesystem names whose
   hash feeds [s_magic] in the kernel simulator. Pinning the latter
   pins the trace bytes across OCaml versions — the whole reason
   Hashtbl.hash was evicted from vfs_super.ml. *)
let test_fnv_vectors () =
  check Alcotest.int "empty = offset basis" 0x811C9DC5 (Fnv.fnv1a32 "");
  check Alcotest.int "a" 0xE40C292C (Fnv.fnv1a32 "a");
  check Alcotest.int "foobar" 0xBF9CF968 (Fnv.fnv1a32 "foobar")

let test_fnv_fs_magics () =
  List.iter
    (fun (name, magic) ->
      check Alcotest.int ("s_magic " ^ name) magic
        (Fnv.fnv1a32 name land 0xffff))
    [
      ("ext4", 0x5BC0); ("tmpfs", 0xC0D1); ("proc", 0x2FE1);
      ("pipefs", 0x309A); ("bdev", 0xC85C); ("sysfs", 0x7E19);
      ("devtmpfs", 0x4766); ("sockfs", 0x49CE); ("debugfs", 0x5C0B);
      ("anon_inodefs", 0xF6DC);
    ]

let test_fnv_32bit_range () =
  List.iter
    (fun s ->
      let h = Fnv.fnv1a32 s in
      check Alcotest.bool ("in range: " ^ s) true (h >= 0 && h <= 0xFFFFFFFF))
    [ ""; "a"; "\xff\xff\xff\xff"; String.make 100 'z' ]

(* {2 Numarg} *)

let test_numarg_int () =
  check Alcotest.bool "plain" true (Numarg.int_arg "42" = Ok 42);
  check Alcotest.bool "negative" true (Numarg.int_arg "-7" = Ok (-7));
  check Alcotest.bool "trimmed" true (Numarg.int_arg " 8 " = Ok 8);
  check Alcotest.bool "junk rejected" true
    (Result.is_error (Numarg.int_arg "x"));
  check Alcotest.bool "empty rejected" true
    (Result.is_error (Numarg.int_arg ""));
  check Alcotest.bool "trailing junk rejected" true
    (Result.is_error (Numarg.int_arg "12abc"))

let test_numarg_positive () =
  check Alcotest.bool "accepts 1" true (Numarg.positive "1" = Ok 1);
  (match Numarg.positive "0" with
  | Error msg ->
      check Alcotest.bool "one-line diagnostic" true
        (not (String.contains msg '\n'))
  | Ok _ -> Alcotest.fail "0 accepted");
  check Alcotest.bool "rejects negatives" true
    (Result.is_error (Numarg.positive "-3"))

let test_numarg_non_negative () =
  check Alcotest.bool "accepts 0" true (Numarg.non_negative "0" = Ok 0);
  check Alcotest.bool "rejects -1" true
    (Result.is_error (Numarg.non_negative "-1"))

let test_numarg_fraction () =
  check Alcotest.bool "0.9" true (Numarg.fraction "0.9" = Ok 0.9);
  check Alcotest.bool "bounds" true
    (Numarg.fraction "0" = Ok 0. && Numarg.fraction "1" = Ok 1.);
  check Alcotest.bool "rejects 1.5" true
    (Result.is_error (Numarg.fraction "1.5"));
  check Alcotest.bool "rejects -0.1" true
    (Result.is_error (Numarg.fraction "-0.1"));
  check Alcotest.bool "rejects junk" true
    (Result.is_error (Numarg.fraction "nan"))

(* {2 Tablefmt} *)

let test_table_render () =
  let t = Tablefmt.create ~header:[ "a"; "bb" ] in
  Tablefmt.add_row t [ "x"; "y" ];
  Tablefmt.add_row t [ "longer"; "z" ];
  let rendered = Tablefmt.render t in
  let lines = String.split_on_char '\n' rendered in
  check Alcotest.int "line count" 6 (List.length lines);
  (* All lines are the same width. *)
  let widths = List.map String.length lines in
  check Alcotest.bool "uniform width" true
    (List.for_all (fun w -> w = List.hd widths) widths)

let test_table_align () =
  let t = Tablefmt.create ~header:[ "n" ] in
  Tablefmt.set_align t [ Tablefmt.Right ];
  Tablefmt.add_row t [ "7" ];
  Tablefmt.add_row t [ "1234" ];
  let rendered = Tablefmt.render t in
  check Alcotest.bool "right aligned" true (contains rendered "|    7 |")

let test_table_width_mismatch () =
  let t = Tablefmt.create ~header:[ "a"; "b" ] in
  Alcotest.check_raises "row width" (Invalid_argument "Tablefmt.add_row: width mismatch")
    (fun () -> Tablefmt.add_row t [ "only one" ])

let () =
  Alcotest.run "util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_prng_copy;
          Alcotest.test_case "split" `Quick test_prng_split_independent;
          Alcotest.test_case "weighted" `Quick test_prng_weighted;
          Alcotest.test_case "shuffle permutation" `Quick test_prng_shuffle_permutation;
          qtest prop_int_bounds;
          qtest prop_int_in_bounds;
          qtest prop_float_bounds;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_mean;
          Alcotest.test_case "percentage" `Quick test_percentage;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "counter" `Quick test_counter;
        ] );
      ( "vec",
        [
          Alcotest.test_case "basic" `Quick test_vec_basic;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "growth" `Quick test_vec_growth;
        ] );
      ( "fnv",
        [
          Alcotest.test_case "canonical vectors" `Quick test_fnv_vectors;
          Alcotest.test_case "fs magic goldens" `Quick test_fnv_fs_magics;
          Alcotest.test_case "32-bit range" `Quick test_fnv_32bit_range;
        ] );
      ( "numarg",
        [
          Alcotest.test_case "int" `Quick test_numarg_int;
          Alcotest.test_case "positive" `Quick test_numarg_positive;
          Alcotest.test_case "non-negative" `Quick test_numarg_non_negative;
          Alcotest.test_case "fraction" `Quick test_numarg_fraction;
        ] );
      ( "tablefmt",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "align" `Quick test_table_align;
          Alcotest.test_case "width mismatch" `Quick test_table_width_mismatch;
        ] );
    ]
