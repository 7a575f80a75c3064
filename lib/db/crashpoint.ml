exception Crash of string

let () =
  Printexc.register_printer (function
    | Crash site -> Some (Printf.sprintf "Crashpoint.Crash(%S)" site)
    | _ -> None)

type state = { mutable countdown : int option; mutable hits : int }

let state = { countdown = None; hits = 0 }

let reset () =
  state.countdown <- None;
  state.hits <- 0

let arm ~after =
  if after <= 0 then invalid_arg "Crashpoint.arm: after must be positive";
  state.countdown <- Some after;
  state.hits <- 0

let armed () = state.countdown <> None
let hits () = state.hits

let hit ?partial site =
  state.hits <- state.hits + 1;
  match state.countdown with
  | None -> ()
  | Some n when state.hits < n -> ()
  | Some _ ->
      state.countdown <- None;
      (match partial with Some f -> f () | None -> ());
      raise (Crash site)
