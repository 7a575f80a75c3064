(* Checked numeric parsing for command-line flags.

   [int_of_string] raises a bare [Failure "int_of_string"], which the
   CLI used to surface as an uncaught exception with a backtrace. These
   parsers return a one-line diagnostic instead, and encode the
   positivity requirements (a --top of 0 shows nothing, a checkpoint
   period of 0 would checkpoint forever) at the parsing boundary. *)

let int_arg s =
  match int_of_string_opt (String.trim s) with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "expected an integer, got %S" s)

let positive s =
  match int_arg s with
  | Error _ as e -> e
  | Ok n when n <= 0 ->
      Error (Printf.sprintf "expected a positive integer, got %d" n)
  | Ok n -> Ok n

let non_negative s =
  match int_arg s with
  | Error _ as e -> e
  | Ok n when n < 0 ->
      Error (Printf.sprintf "expected a non-negative integer, got %d" n)
  | Ok n -> Ok n

let fraction s =
  match float_of_string_opt (String.trim s) with
  | None -> Error (Printf.sprintf "expected a number, got %S" s)
  | Some f when not (Float.is_finite f) || f < 0. || f > 1. ->
      Error (Printf.sprintf "expected a fraction in [0, 1], got %s" s)
  | Some f -> Ok f

let positive_float s =
  match float_of_string_opt (String.trim s) with
  | None -> Error (Printf.sprintf "expected a number, got %S" s)
  | Some f when (not (Float.is_finite f)) || f <= 0. ->
      Error (Printf.sprintf "expected a positive number, got %s" s)
  | Some f -> Ok f
