(* Socket front end: the dumb half of the daemon.

   Everything interesting happens in {!Server}; this loop only moves
   bytes. One select loop over two listeners (Unix-domain socket
   always, TCP optionally), per-connection outboxes; a connection is
   closed when the engine says so and its outbox has drained. The loop
   ends when the engine enters shutdown and the goodbyes have been
   flushed.

   Every deadline here is measured on {!Obs.Clock.wall}, which is
   CLOCK_MONOTONIC: a wall-clock step (NTP, manual date set) must never
   idle-close a healthy client or stall timeout detection. Syscalls
   tolerate [EINTR] — a signal landing mid-[write]/[read]/[accept]/
   [select] restarts the call instead of tearing down a connection. *)

module Obs = Lockdoc_obs.Obs

type sealed = { events : int; rules : string; violations : string }

exception Error of string

let ignore_sigpipe () =
  if Sys.unix then ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)

let write_all fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    match Unix.write_substring fd s !off (n - !off) with
    | w -> off := !off + w
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let rec read_retry fd buf off len =
  match Unix.read fd buf off len with
  | n -> n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_retry fd buf off len

(* Resolve a TCP endpoint. Numeric addresses avoid the resolver; names
   go through [gethostbyname] (first address wins). *)
let inet_addr host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
          raise (Error ("cannot resolve host " ^ host))
      | { Unix.h_addr_list; _ } -> h_addr_list.(0))

(* ---- The daemon --------------------------------------------------- *)

type sconn = {
  fd : Unix.file_descr;
  cid : int;
  out : Buffer.t;
  mutable out_off : int;
  mutable close_after : bool;  (* close once the outbox drains *)
}

(* Bind and listen on [sockaddr ()]; any failure, name resolution
   included, is one [Error] naming [address]. *)
let listen_on ~address domain sockaddr =
  try
    let addr = sockaddr () in
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    try
      if domain = Unix.PF_INET then Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd addr;
      Unix.listen fd 64;
      Unix.set_nonblock fd;
      fd
    with e ->
      Unix.close fd;
      raise e
  with
  | Unix.Unix_error (e, _, _) ->
      raise (Error (address ^ ": " ^ Unix.error_message e))
  | Error reason -> raise (Error (address ^ ": " ^ reason))

let serve ?config ?tcp ?on_ready ~socket () =
  ignore_sigpipe ();
  let srv =
    try Server.create ?config () with Sys_error reason -> raise (Error reason)
  in
  if Sys.file_exists socket then Sys.remove socket;
  let listen_fd =
    listen_on ~address:socket Unix.PF_UNIX (fun () -> Unix.ADDR_UNIX socket)
  in
  let tcp_fd =
    match tcp with
    | None -> None
    | Some (host, port) -> (
        try
          Some
            (listen_on
               ~address:(Printf.sprintf "%s:%d" host port)
               Unix.PF_INET
               (fun () -> Unix.ADDR_INET (inet_addr host, port)))
        with e ->
          (* The socket file is ours: leave nothing behind. *)
          Unix.close listen_fd;
          Sys.remove socket;
          raise e)
  in
  let listeners = listen_fd :: Option.to_list tcp_fd in
  (* Report the bound port — with [port = 0] the kernel picked an
     ephemeral one, which tests need to discover. A reporter that
     raises (stdout closed under it) stops the daemon before it serves,
     leaving no socket file behind. *)
  (try
     match (Option.map Unix.getsockname tcp_fd, on_ready) with
     | Some (Unix.ADDR_INET (_, p)), Some f -> f (Some p)
     | _, Some f -> f None
     | _, None -> ()
   with e ->
     List.iter
       (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
       listeners;
     Sys.remove socket;
     raise e);
  let conns : (Unix.file_descr, sconn) Hashtbl.t = Hashtbl.create 16 in
  let by_cid : (int, sconn) Hashtbl.t = Hashtbl.create 16 in
  let buf = Bytes.create 65536 in
  let drop sc =
    Hashtbl.remove conns sc.fd;
    Hashtbl.remove by_cid sc.cid;
    try Unix.close sc.fd with Unix.Unix_error _ -> ()
  in
  let route outs =
    List.iter
      (fun out ->
        let cid, act = Server.encode_output out in
        match Hashtbl.find_opt by_cid cid with
        | None -> ()
        | Some sc -> (
            match act with
            | `Send bytes -> Buffer.add_string sc.out bytes
            | `Close _reason -> sc.close_after <- true))
      outs
  in
  let flush sc =
    let s = Buffer.contents sc.out in
    let n = String.length s in
    (try
       while sc.out_off < n do
         match Unix.write_substring sc.fd s sc.out_off (n - sc.out_off) with
         | w -> sc.out_off <- sc.out_off + w
         | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
       done;
       Buffer.clear sc.out;
       sc.out_off <- 0
     with
    | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | Unix.Unix_error _ ->
        Server.on_close srv ~now:(Obs.Clock.wall ()) sc.cid;
        drop sc);
    if
      sc.close_after && Buffer.length sc.out = 0
      && Hashtbl.mem conns sc.fd
    then drop sc
  in
  let running = ref true in
  while !running do
    let now = Obs.Clock.wall () in
    let readable = listeners @ Hashtbl.fold (fun fd _ a -> fd :: a) conns [] in
    let writable =
      Hashtbl.fold
        (fun fd sc a -> if Buffer.length sc.out > 0 then fd :: a else a)
        conns []
    in
    let rs, ws, _ =
      try Unix.select readable writable [] 0.05
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter
      (fun fd ->
        if List.mem fd listeners then begin
          match Unix.accept fd with
          | exception
              Unix.Unix_error
                ( ( Unix.EAGAIN | Unix.EWOULDBLOCK
                  (* a signal interrupted the accept, or the peer gave
                     up between select and accept: both mean "nothing
                     to accept right now", not an error *)
                  | Unix.EINTR | Unix.ECONNABORTED ),
                  _,
                  _ ) ->
              ()
          | cfd, _ ->
              Unix.set_nonblock cfd;
              (* Frames are small; Nagle would batch Pong/Nack replies
                 behind a 40ms delayed-ack window on TCP. *)
              if tcp_fd = Some fd then
                (try Unix.setsockopt cfd Unix.TCP_NODELAY true
                 with Unix.Unix_error _ -> ());
              let cid, outs = Server.accept srv ~now in
              let sc =
                {
                  fd = cfd;
                  cid;
                  out = Buffer.create 256;
                  out_off = 0;
                  close_after = false;
                }
              in
              Hashtbl.replace conns cfd sc;
              Hashtbl.replace by_cid cid sc;
              route outs
        end
        else
          match Hashtbl.find_opt conns fd with
          | None -> ()
          | Some sc -> (
              match Unix.read fd buf 0 (Bytes.length buf) with
              | exception
                  Unix.Unix_error
                    ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
                  ()
              | exception Unix.Unix_error _ ->
                  Server.on_close srv ~now sc.cid;
                  drop sc
              | 0 ->
                  Server.on_close srv ~now sc.cid;
                  drop sc
              | n ->
                  route
                    (Server.on_bytes srv ~now sc.cid
                       (Bytes.sub_string buf 0 n))))
      rs;
    route (Server.step srv ~now);
    List.iter
      (fun fd ->
        match Hashtbl.find_opt conns fd with
        | Some sc -> flush sc
        | None -> ())
      ws;
    (* Also try to flush connections that gained output this round. *)
    Hashtbl.iter
      (fun _ sc ->
        if Buffer.length sc.out > 0 || sc.close_after then flush sc)
      (Hashtbl.copy conns);
    if Server.shutting_down srv && Hashtbl.length conns = 0 then
      running := false
  done;
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    listeners;
  if Sys.file_exists socket then Sys.remove socket

(* ---- The client --------------------------------------------------- *)

(* Connect to the daemon: over TCP when [tcp] is given, else over the
   Unix-domain [socket]. *)
let connect ?tcp socket =
  match tcp with
  | None ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try
         Unix.connect fd (Unix.ADDR_UNIX socket);
         fd
       with e ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         raise e)
  | Some (host, port) ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      (try
         Unix.connect fd (Unix.ADDR_INET (inet_addr host, port));
         (try Unix.setsockopt fd Unix.TCP_NODELAY true
          with Unix.Unix_error _ -> ());
         fd
       with e ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         raise e)

let send_msg fd msg =
  write_all fd (Frame.encode (Proto.client_to_payload msg))

(* Blocking receive of the next server message. *)
let recv_msg fd dec =
  let buf = Bytes.create 8192 in
  let rec go () =
    match Frame.next dec with
    | Frame.Frame p -> (
        match Proto.server_of_payload p with
        | Ok m -> m
        | Error e -> raise (Error ("bad server frame: " ^ e)))
    | Frame.Corrupt e -> raise (Error ("corrupt server stream: " ^ e))
    | Frame.Awaiting ->
        let n = read_retry fd buf 0 (Bytes.length buf) in
        if n = 0 then raise End_of_file;
        Frame.feed dec ~len:n (Bytes.to_string buf);
        go ()
  in
  go ()

(* Drain any replies that are already here, without blocking. *)
let poll_msgs fd dec =
  let buf = Bytes.create 8192 in
  let msgs = ref [] in
  let continue = ref true in
  while !continue do
    match Frame.next dec with
    | Frame.Frame p -> (
        match Proto.server_of_payload p with
        | Ok m -> msgs := m :: !msgs
        | Error e -> raise (Error ("bad server frame: " ^ e)))
    | Frame.Corrupt e -> raise (Error ("corrupt server stream: " ^ e))
    | Frame.Awaiting -> (
        match Unix.select [ fd ] [] [] 0. with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | [], _, _ -> continue := false
        | _ -> (
            match read_retry fd buf 0 (Bytes.length buf) with
            | 0 -> raise End_of_file
            | n -> Frame.feed dec ~len:n (Bytes.to_string buf)))
  done;
  List.rev !msgs

exception Reconnect of float  (* sleep this long, then try again *)

let feed ?(rows_per_frame = 256) ?(max_attempts = 200) ?tcp ?follow ~socket
    ~session lines =
  ignore_sigpipe ();
  let lines = Array.of_list lines in
  let total = Array.length lines in
  let cursor = ref 0 in
  let handle_err code reason =
    match code with
    | "session-failed" | "garbled" | "shutting-down" ->
        raise (Reconnect 0.05)
    | _ ->
        raise
          (Error (Printf.sprintf "server rejected feed: %s (%s)" code reason))
  in
  (* One connection's worth of work; returns the sealed result or
     raises [Reconnect]. *)
  let attempt () =
    let fd = connect ?tcp socket in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let dec = Frame.decoder () in
        send_msg fd (Proto.Hello { version = Proto.version; session });
        let apply_flow = function
          | Proto.Nack { expected } -> cursor := expected
          | Proto.Retry_after { ms; _ } ->
              Unix.sleepf (float_of_int ms /. 1000.)
          | Proto.Err { code; reason } -> handle_err code reason
          | Proto.Closing _ -> raise (Reconnect 0.02)
          | Proto.Info { json } ->
              (* Pushed rule updates (we subscribed below); anything
                 else [Info]-framed is equally the follower's to see. *)
              (match follow with Some f -> f json | None -> ())
          | Proto.Welcome _ | Proto.Pong | Proto.Sealed _ -> ()
        in
        (match recv_msg fd dec with
        | Proto.Welcome { resume } -> cursor := resume
        | Proto.Retry_after { ms; _ } ->
            raise (Reconnect (float_of_int ms /. 1000.))
        | Proto.Err { code; reason } -> handle_err code reason
        | Proto.Closing _ -> raise (Reconnect 0.02)
        | m ->
            raise
              (Error
                 ("unexpected reply to hello: " ^ Proto.server_to_payload m)));
        (* Following: register for pushed rule updates. The snapshot
           and every later delta arrive as [Info] frames, which
           [apply_flow] hands to the callback between row batches. *)
        if follow <> None then send_msg fd Proto.Subscribe;
        let result = ref None in
        while !result = None do
          if !cursor < total then begin
            let n = min rows_per_frame (total - !cursor) in
            let batch = Array.to_list (Array.sub lines !cursor n) in
            let start = !cursor in
            cursor := !cursor + n;
            send_msg fd (Proto.Rows { start; lines = batch });
            List.iter apply_flow (poll_msgs fd dec)
          end
          else begin
            send_msg fd (Proto.Seal { rows = total });
            match recv_msg fd dec with
            | Proto.Sealed { events; rules; violations } ->
                result := Some { events; rules; violations }
            | m -> apply_flow m
          end
        done;
        (try send_msg fd Proto.Bye with
        | Unix.Unix_error _ | End_of_file -> ());
        Option.get !result)
  in
  let rec go attempts =
    if attempts > max_attempts then
      raise (Error "too many reconnect attempts")
    else
      match attempt () with
      | sealed -> sealed
      | exception Reconnect pause ->
          if pause > 0. then Unix.sleepf pause;
          go (attempts + 1)
      | exception
          ( End_of_file
          | Unix.Unix_error
              ( ( Unix.EPIPE | Unix.ECONNRESET | Unix.ECONNREFUSED
                | Unix.ENOENT ),
                _,
                _ ) ) ->
          Unix.sleepf 0.05;
          go (attempts + 1)
  in
  go 1

let request ?tcp ~socket msg =
  ignore_sigpipe ();
  let fd = connect ?tcp socket in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let dec = Frame.decoder () in
      send_msg fd msg;
      recv_msg fd dec)

(* Session-scoped one-shot: the [stream] query needs an attached
   session, so unlike {!request} this handshakes with [Hello] first.
   The session stays resumable (and unsealed) afterwards. *)
let stream_query ?tcp ~socket ~session () =
  ignore_sigpipe ();
  let fd = connect ?tcp socket in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let dec = Frame.decoder () in
      send_msg fd (Proto.Hello { version = Proto.version; session });
      (match recv_msg fd dec with
      | Proto.Welcome _ -> ()
      | Proto.Err { code; reason } ->
          raise (Error (Printf.sprintf "server error [%s]: %s" code reason))
      | Proto.Retry_after { reason; _ } ->
          raise (Error ("server busy: " ^ reason))
      | _ -> raise (Error "unexpected reply to hello"));
      send_msg fd (Proto.Query Proto.Stream_rules);
      match recv_msg fd dec with
      | Proto.Info { json } ->
          (* Detach politely so the session is not held attached. *)
          (try send_msg fd Proto.Bye with _ -> ());
          json
      | Proto.Err { code; reason } ->
          raise (Error (Printf.sprintf "server error [%s]: %s" code reason))
      | _ -> raise (Error "unexpected reply to stream query"))
