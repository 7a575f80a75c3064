(* Connection-chaos harness.

   The server is the exact sans-IO engine from {!Server}; this module
   supplies the other half of the world — clients, wires and time — as
   deterministic simulation. Virtual time advances in fixed ticks; each
   wire direction is a FIFO of chunks with monotone delivery times, so
   faults can drop, delay, garble or cut traffic without ever
   reordering it (the one thing a stream transport guarantees).

   Two clients stream concurrently: client 0 takes the faults, client 1
   is clean. Both must seal with reports byte-identical to the batch
   pipeline — that is the oracle that says recovery reconstructed the
   analysis, not something close to it. *)

module Prng = Lockdoc_util.Prng
module Trace = Lockdoc_trace.Trace
module Import = Lockdoc_db.Import
module Crashpoint = Lockdoc_db.Crashpoint
module Dataset = Lockdoc_core.Dataset
module Derivator = Lockdoc_core.Derivator
module Violation = Lockdoc_core.Violation
module Report = Lockdoc_core.Report
module Run_ = Lockdoc_ksim.Run

type fault = Drop | Delay | Garble | Kill | Reconnect_storm | Slowloris

let fault_name = function
  | Drop -> "drop"
  | Delay -> "delay"
  | Garble -> "garble"
  | Kill -> "kill"
  | Reconnect_storm -> "reconnect-storm"
  | Slowloris -> "slowloris"

let all_faults = [ Drop; Delay; Garble; Kill; Reconnect_storm; Slowloris ]

type outcome = {
  o_ticks : int;
  o_frames_sent : int;
  o_faults_injected : int;
  o_reconnects : int;
  o_nacks : int;
  o_retry_afters : int;
  o_garbled : int;
  o_session_failures : int;
  o_supersedes : int;
  o_idle_closes : int;
  o_corrupted_tails : int;
  o_rows_resent : int;
}

(* ---- Simulation fabric -------------------------------------------- *)

let dt = 0.01 (* seconds per tick *)
let batch_rows = 32
let watchdog_ticks = 150
let max_ticks = 120_000

type data = Bytes_ of { b : string; crash : bool } | Close_
type chunk = { at : int; data : data }

type vconn = {
  vc_id : int;
  vc_owner : int;  (* client index; -1 = the mute slowloris probe *)
  c2s : chunk Queue.t;
  s2c : chunk Queue.t;
  mutable c2s_last : int;  (* delivery times are monotone per queue *)
  mutable s2c_last : int;
  mutable srv_open : bool;
}

type phase = Offline of int | Hello_wait | Run | Finished

type client = {
  idx : int;
  session : string;
  lines : string array;
  total : int;
  mutable conn : vconn option;
  mutable dec : Frame.decoder;
  mutable cursor : int;  (* next row to send *)
  mutable sent_seal : bool;
  mutable phase : phase;
  mutable pause_until : int;  (* honoured retry-after *)
  mutable last_reply : int;
  mutable connected_once : bool;
  mutable corrupt_next : bool;  (* damage the journal tail at reconnect *)
  mutable rows_frames : int;  (* fault cadence counter *)
  mutable kills : int;
  mutable storms : int;
  mutable slow_left : int;  (* slowloris: frames left to dribble *)
  mutable result : (int * string * string) option;
}

type counters = {
  mutable frames_sent : int;
  mutable faults : int;
  mutable reconnects : int;
  mutable nacks : int;
  mutable retry_afters : int;
  mutable garbled : int;
  mutable session_failures : int;
  mutable supersedes : int;
  mutable idle_closes : int;
  mutable corrupted : int;
  mutable resent : int;
}

type st = {
  fault : fault;
  transport : [ `Unix_sock | `Tcp ];
  rng : Prng.t;
  srv : Server.t;
  vconns : (int, vconn) Hashtbl.t;
  clients : client array;
  mutable probe : vconn option;
  mutable tick : int;
  k : counters;
  durable_root : string option;
}

let now st = float_of_int st.tick *. dt

(* The transport's segmentation model. A Unix-domain socket delivers a
   frame written in one [write] as one chunk; TCP promises only a byte
   stream, so under [`Tcp] every frame is re-cut at seeded offsets into
   up to four runs landing on consecutive ticks — the decoder must
   reassemble across arbitrary boundaries, which is exactly what the
   kernel gives a real TCP client under small MSS or coalescing. *)
let segments st b =
  match st.transport with
  | `Unix_sock -> [ b ]
  | `Tcp ->
      let n = String.length b in
      if n <= 2 then [ b ]
      else
        let k = 1 + Prng.int st.rng 3 in
        let cuts =
          List.sort_uniq compare
            (List.init k (fun _ -> 1 + Prng.int st.rng (n - 1)))
        in
        let rec build prev = function
          | [] -> [ String.sub b prev (n - prev) ]
          | c :: rest -> String.sub b prev (c - prev) :: build c rest
        in
        build 0 cuts

let push_c2s vc ~at data =
  let at = max at vc.c2s_last in
  vc.c2s_last <- at;
  Queue.push { at; data } vc.c2s

let push_s2c vc ~at data =
  let at = max at vc.s2c_last in
  vc.s2c_last <- at;
  Queue.push { at; data } vc.s2c

(* ---- Server-output routing ---------------------------------------- *)

(* Evidence is counted here, at the wire, so a reply that a fault later
   eats still proves the server reacted. *)
let note_evidence st (msg : Proto.server_msg) =
  match msg with
  | Proto.Nack _ -> st.k.nacks <- st.k.nacks + 1
  | Proto.Retry_after _ -> st.k.retry_afters <- st.k.retry_afters + 1
  | Proto.Err { code = "garbled"; _ } -> st.k.garbled <- st.k.garbled + 1
  | Proto.Err { code = "session-failed"; _ } ->
      st.k.session_failures <- st.k.session_failures + 1
  | Proto.Closing { reason = "superseded" } ->
      st.k.supersedes <- st.k.supersedes + 1
  | Proto.Closing { reason = "idle-timeout" } ->
      st.k.idle_closes <- st.k.idle_closes + 1
  | _ -> ()

let route st (outs : Server.output list) =
  List.iter
    (fun out ->
      match out with
      | Server.Send (cid, msg) -> (
          note_evidence st msg;
          match Hashtbl.find_opt st.vconns cid with
          | None -> ()
          | Some vc ->
              let faulted = vc.vc_owner = 0 in
              let drop =
                faulted && st.fault = Drop && Prng.bernoulli st.rng 0.2
              in
              if drop then st.k.faults <- st.k.faults + 1
              else
                let delay =
                  if faulted && st.fault = Delay then (
                    st.k.faults <- st.k.faults + 1;
                    Prng.int st.rng 31)
                  else 0
                in
                let b = Frame.encode (Proto.server_to_payload msg) in
                List.iteri
                  (fun i sgb ->
                    push_s2c vc ~at:(st.tick + 1 + delay + i)
                      (Bytes_ { b = sgb; crash = false }))
                  (segments st b))
      | Server.Close (cid, _reason) -> (
          match Hashtbl.find_opt st.vconns cid with
          | None -> ()
          | Some vc ->
              vc.srv_open <- false;
              push_s2c vc ~at:(st.tick + 1) Close_))
    outs

(* ---- Client sends ------------------------------------------------- *)

let offline cl ~at =
  cl.conn <- None;
  if cl.phase <> Finished then cl.phase <- Offline at

(* Hand one frame to the wire, applying client 0's fault family. *)
let send st cl (msg : Proto.client_msg) =
  match cl.conn with
  | None -> ()
  | Some vc -> (
      st.k.frames_sent <- st.k.frames_sent + 1;
      let b = Frame.encode (Proto.client_to_payload msg) in
      let is_rows = match msg with Proto.Rows _ -> true | _ -> false in
      if is_rows then cl.rows_frames <- cl.rows_frames + 1;
      let plain ?(delay = 0) ?(crash = false) bytes =
        (* Under TCP segmentation the frame only completes with its
           last run, so an armed crash must ride that one. *)
        let segs = segments st bytes in
        let last = List.length segs - 1 in
        List.iteri
          (fun i sgb ->
            push_c2s vc ~at:(st.tick + 1 + delay + i)
              (Bytes_ { b = sgb; crash = crash && i = last }))
          segs
      in
      if cl.idx <> 0 then plain b
      else
        match st.fault with
        | Drop ->
            if Prng.bernoulli st.rng 0.2 then st.k.faults <- st.k.faults + 1
            else plain b
        | Delay ->
            st.k.faults <- st.k.faults + 1;
            plain ~delay:(Prng.int st.rng 31) b
        | Garble ->
            if Prng.bernoulli st.rng 0.15 then begin
              st.k.faults <- st.k.faults + 1;
              let g = Bytes.of_string b in
              let i = Prng.int st.rng (Bytes.length g) in
              Bytes.set g i
                (Char.chr
                   (Char.code (Bytes.get g i) lxor (1 lsl Prng.int st.rng 8)));
              plain (Bytes.to_string g)
            end
            else plain b
        | Kill when is_rows && cl.rows_frames mod 7 = 0 ->
            st.k.faults <- st.k.faults + 1;
            cl.kills <- cl.kills + 1;
            if cl.kills mod 2 = 1 then begin
              (* Torn mid-frame: half the bytes arrive, then the wire
                 dies under the server's feet. *)
              plain (String.sub b 0 (String.length b / 2));
              push_c2s vc ~at:(st.tick + 2) Close_;
              offline cl
                ~at:(st.tick + if cl.kills mod 4 = 1 then 4 else 35)
            end
            else begin
              (* Worker crash: the frame arrives intact and an armed
                 crash point kills the session while it is handled. *)
              plain ~crash:true b;
              if st.durable_root <> None && cl.kills mod 4 = 0 then
                cl.corrupt_next <- true
            end
        | Reconnect_storm when is_rows && cl.rows_frames mod 5 = 0 ->
            st.k.faults <- st.k.faults + 1;
            cl.storms <- cl.storms + 1;
            plain b;
            (* Abandon the connection right after the frame — half the
               time silently (no close ever reaches the server), which
               is what forces the supersede path on reconnect. *)
            if cl.storms mod 2 = 0 then push_c2s vc ~at:(st.tick + 2) Close_;
            offline cl ~at:(st.tick + 2)
        | Slowloris when cl.slow_left > 0 ->
            st.k.faults <- st.k.faults + 1;
            cl.slow_left <- cl.slow_left - 1;
            String.iter
              (fun ch ->
                push_c2s vc
                  ~at:(max (st.tick + 1) (vc.c2s_last + 1))
                  (Bytes_ { b = String.make 1 ch; crash = false }))
              b
        | Kill | Reconnect_storm | Slowloris -> plain b)

let mk_vconn st ~owner cid =
  let vc =
    {
      vc_id = cid;
      vc_owner = owner;
      c2s = Queue.create ();
      s2c = Queue.create ();
      c2s_last = st.tick;
      s2c_last = st.tick;
      srv_open = true;
    }
  in
  Hashtbl.replace st.vconns cid vc;
  vc

let connect st cl =
  (match (cl.corrupt_next, st.durable_root) with
  | true, Some root ->
      cl.corrupt_next <- false;
      let dir = Filename.concat root ("session-" ^ cl.session) in
      if Sys.file_exists dir then (
        match Crashpoint.corrupt_tail ~dir ~seed:(Prng.int st.rng 1000000) with
        | Some _ -> st.k.corrupted <- st.k.corrupted + 1
        | None -> ())
  | _ -> ());
  if cl.connected_once then st.k.reconnects <- st.k.reconnects + 1;
  cl.connected_once <- true;
  let cid, outs = Server.accept st.srv ~now:(now st) in
  let vc = mk_vconn st ~owner:cl.idx cid in
  cl.conn <- Some vc;
  cl.dec <- Frame.decoder ();
  route st outs;
  cl.phase <- Hello_wait;
  cl.last_reply <- st.tick;
  send st cl (Proto.Hello { version = Proto.version; session = cl.session })

let force_reconnect st cl ~after =
  (match cl.conn with
  | Some vc -> push_c2s vc ~at:(st.tick + 1) Close_
  | None -> ());
  cl.sent_seal <- false;
  offline cl ~at:(st.tick + after)

(* One client decision per tick. *)
let act st cl =
  match cl.phase with
  | Finished -> ()
  | Offline at ->
      if st.tick >= at && st.tick >= cl.pause_until then connect st cl
  | Hello_wait ->
      if st.tick - cl.last_reply > watchdog_ticks then
        force_reconnect st cl ~after:3
  | Run ->
      if cl.conn = None then offline cl ~at:(st.tick + 3)
      else if st.tick < cl.pause_until then ()
      else if cl.cursor < cl.total then begin
        let n = min batch_rows (cl.total - cl.cursor) in
        let lines =
          Array.to_list (Array.sub cl.lines cl.cursor n)
        in
        let start = cl.cursor in
        cl.cursor <- cl.cursor + n;
        send st cl (Proto.Rows { start; lines })
      end
      else if not cl.sent_seal then begin
        cl.sent_seal <- true;
        send st cl (Proto.Seal { rows = cl.total })
      end
      else if st.tick - cl.last_reply > watchdog_ticks then
        force_reconnect st cl ~after:3

(* ---- Client receives ---------------------------------------------- *)

let rewind st cl target =
  if target < cl.cursor then st.k.resent <- st.k.resent + (cl.cursor - target);
  cl.cursor <- target;
  cl.sent_seal <- false

let on_server_msg st cl (msg : Proto.server_msg) =
  cl.last_reply <- st.tick;
  match msg with
  | Proto.Welcome { resume } ->
      rewind st cl resume;
      cl.phase <- Run
  | Proto.Nack { expected } -> rewind st cl expected
  | Proto.Retry_after { ms; _ } ->
      cl.pause_until <- st.tick + 1 + ((ms + 9) / 10)
  | Proto.Sealed { events; rules; violations } ->
      cl.result <- Some (events, rules, violations);
      send st cl Proto.Bye;
      cl.phase <- Finished
  | Proto.Err { code = "permanent-failure"; reason } ->
      failwith
        (Printf.sprintf "chaos(%s): session %s gave up: %s"
           (fault_name st.fault) cl.session reason)
  | Proto.Err _ | Proto.Closing _ ->
      (* A [Close] marker follows on the same queue; reconnect then. *)
      ()
  | Proto.Pong | Proto.Info _ -> ()

let deliver_s2c st vc =
  let continue = ref true in
  while
    !continue
    && (not (Queue.is_empty vc.s2c))
    && (Queue.peek vc.s2c).at <= st.tick
  do
    let { data; _ } = Queue.pop vc.s2c in
    let cl = if vc.vc_owner >= 0 then Some st.clients.(vc.vc_owner) else None in
    let live =
      match cl with
      | Some cl -> ( match cl.conn with Some c -> c == vc | None -> false)
      | None -> false
    in
    match data with
    | Close_ ->
        if live then (
          let cl = Option.get cl in
          offline cl ~at:(st.tick + 3);
          continue := false)
    | Bytes_ { b; _ } ->
        if live then begin
          let cl = Option.get cl in
          Frame.feed cl.dec b;
          let drain = ref true in
          while !drain do
            match Frame.next cl.dec with
            | Frame.Awaiting -> drain := false
            | Frame.Corrupt reason ->
                failwith
                  (Printf.sprintf "chaos(%s): client %d decoder corrupt: %s"
                     (fault_name st.fault) cl.idx reason)
            | Frame.Frame payload -> (
                match Proto.server_of_payload payload with
                | Ok msg ->
                    on_server_msg st cl msg;
                    if cl.conn = None || cl.phase = Finished then
                      drain := false
                | Error e ->
                    failwith
                      (Printf.sprintf "chaos(%s): bad server frame: %s"
                         (fault_name st.fault) e))
          done
        end
  done

let deliver_c2s st vc =
  while
    (not (Queue.is_empty vc.c2s)) && (Queue.peek vc.c2s).at <= st.tick
  do
    let { data; _ } = Queue.pop vc.c2s in
    match data with
    | Close_ ->
        if vc.srv_open then begin
          vc.srv_open <- false;
          Server.on_close st.srv ~now:(now st) vc.vc_id
        end
    | Bytes_ { b; crash } ->
        if vc.srv_open then begin
          if crash then Crashpoint.arm ~after:1;
          let outs =
            Fun.protect
              ~finally:(fun () -> Crashpoint.reset ())
              (fun () -> Server.on_bytes st.srv ~now:(now st) vc.vc_id b)
          in
          route st outs
        end
  done

(* ---- The batch oracle --------------------------------------------- *)

(* The batch pipeline the engine's seal must reproduce byte for byte:
   same import engine, threshold and report serialisation, but one
   [Dataset.of_store] fold of the whole trace and a fresh
   [derive_all] instead of the seal's incremental absorbs and
   memoized freezes. *)
let batch_reference ~tac (trace : Trace.t) =
  let g = Import.engine trace.layouts in
  Array.iter (Import.feed g) trace.events;
  ignore (Import.finalize g);
  let dataset = Dataset.of_store (Import.engine_store g) in
  let mined = Derivator.derive_all ~tac dataset in
  let rules = Report.mined_to_json mined in
  let violations =
    Report.violations_to_json (Violation.find dataset mined)
  in
  (Array.length trace.events, rules, violations)

(* ---- The run ------------------------------------------------------ *)

let chaos_config ~durable_root =
  {
    Server.default_config with
    max_clients = 8;
    session_timeout = 2.0;
    retry_after_ms = 30;
    restart_backoff = 0.1;
    max_backoff = 1.0;
    max_restarts = 1000;
    durable_root;
  }

let sorted_vconns st =
  List.map (Hashtbl.find st.vconns)
    (List.sort compare (Hashtbl.fold (fun k _ a -> k :: a) st.vconns []))

let run ?(seed = 1) ?(scale = 1) ?durable_root ?(transport = `Unix_sock)
    ?(workloads = ("pipe", "device")) fault =
  if fault = Kill && durable_root = None then
    invalid_arg
      "Chaos.run: the kill family needs a durable_root (a crash without a \
       journal restarts the session from row zero and never converges)";
  Crashpoint.reset ();
  let cfg = chaos_config ~durable_root in
  let rng = Prng.of_int seed in
  let mk_client idx name =
    let trace = Run_.workload_trace ~seed:(seed + idx) ~scale name in
    let lines = Array.of_list (Trace.to_lines trace) in
    ( trace,
      {
        idx;
        session = name;
        lines;
        total = Array.length lines;
        conn = None;
        dec = Frame.decoder ();
        cursor = 0;
        sent_seal = false;
        phase = Offline 0;
        pause_until = 0;
        last_reply = 0;
        connected_once = false;
        corrupt_next = false;
        rows_frames = 0;
        kills = 0;
        storms = 0;
        slow_left = (if fault = Slowloris then 3 else 0);
        result = None;
      } )
  in
  let faulted_name, clean_name = workloads in
  let t0, c0 = mk_client 0 faulted_name in
  let t1, c1 = mk_client 1 clean_name in
  let st =
    {
      fault;
      transport;
      rng;
      srv = Server.create ~config:cfg ();
      vconns = Hashtbl.create 16;
      clients = [| c0; c1 |];
      probe = None;
      tick = 0;
      k =
        {
          frames_sent = 0;
          faults = 0;
          reconnects = 0;
          nacks = 0;
          retry_afters = 0;
          garbled = 0;
          session_failures = 0;
          supersedes = 0;
          idle_closes = 0;
          corrupted = 0;
          resent = 0;
        };
      durable_root;
    }
  in
  let finished () =
    Array.for_all (fun c -> c.phase = Finished) st.clients
    && (match st.probe with Some vc -> not vc.srv_open | None -> true)
  in
  while not (finished ()) do
    st.tick <- st.tick + 1;
    if st.tick > max_ticks then
      failwith
        (Printf.sprintf
           "chaos(%s): livelock — not converged after %d ticks \
            (cursors %d/%d and %d/%d)"
           (fault_name fault) max_ticks c0.cursor c0.total c1.cursor c1.total);
    (* The slowloris probe: a connection that never says anything. The
       daemon owes us an idle close. *)
    if fault = Slowloris && st.tick = 5 && st.probe = None then begin
      let cid, outs = Server.accept st.srv ~now:(now st) in
      st.probe <- Some (mk_vconn st ~owner:(-1) cid);
      route st outs
    end;
    Array.iter (act st) st.clients;
    List.iter (deliver_c2s st) (sorted_vconns st);
    route st (Server.step st.srv ~now:(now st));
    List.iter (deliver_s2c st) (sorted_vconns st)
  done;
  (* The oracle: both sessions — faulted and clean — must have produced
     exactly the batch pipeline's reports. *)
  List.iter
    (fun (cl, trace) ->
      let events, rules, violations =
        match cl.result with Some r -> r | None -> assert false
      in
      let e_events, e_rules, e_violations =
        batch_reference ~tac:cfg.Server.tac trace
      in
      if events <> e_events then
        failwith
          (Printf.sprintf "chaos(%s): session %s sealed %d events, batch %d"
             (fault_name fault) cl.session events e_events);
      if not (String.equal rules e_rules) then
        failwith
          (Printf.sprintf
             "chaos(%s): session %s mined rules differ from batch"
             (fault_name fault) cl.session);
      if not (String.equal violations e_violations) then
        failwith
          (Printf.sprintf
             "chaos(%s): session %s violations differ from batch"
             (fault_name fault) cl.session))
    [ (c0, t0); (c1, t1) ];
  {
    o_ticks = st.tick;
    o_frames_sent = st.k.frames_sent;
    o_faults_injected = st.k.faults;
    o_reconnects = st.k.reconnects;
    o_nacks = st.k.nacks;
    o_retry_afters = st.k.retry_afters;
    o_garbled = st.k.garbled;
    o_session_failures = st.k.session_failures;
    o_supersedes = st.k.supersedes;
    o_idle_closes = st.k.idle_closes;
    o_corrupted_tails = st.k.corrupted;
    o_rows_resent = st.k.resent;
  }
