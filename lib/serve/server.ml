(* The supervised multi-client analysis daemon, as a sans-IO engine.

   All protocol, session and supervision logic lives here behind four
   entry points — [accept], [on_bytes], [on_close], [step] — that take
   the current time as an argument and return a list of transport
   actions. No sockets, no clocks, no threads: the Unix front end
   ({!Sockserv}) and the connection-chaos harness ({!Chaos}) drive the
   very same state machine, one with real file descriptors and the
   monotonic clock, the other with scripted faults and virtual time.
   That is what makes every failure mode injectable and every outcome
   assertable. The engine is single-threaded and does the work in the
   call that receives it: a rows frame is applied to the session's
   online engine, a [stream] query freezes it and a seal finalizes it,
   each inside the [on_bytes] call that delivers the frame.

   Isolation invariants:
   - a connection owns its frame decoder; a framing violation kills
     the connection (structured [err garbled]), never the session;
   - a session owns its online engine and, with a durable root, the
     {!Lockdoc_db.Durable} writer that journals and checkpoints it; a
     worker exception (protocol abuse, importer anomaly, injected
     crash) kills the session state, never the daemon — the supervisor
     tombstones it with capped exponential backoff and lets the client
     rebuild from the durable directory. *)

module Trace = Lockdoc_trace.Trace
module Event = Lockdoc_trace.Event
module Layout = Lockdoc_trace.Layout
module Import = Lockdoc_db.Import
module Store = Lockdoc_db.Store
module Durable = Lockdoc_db.Durable
module Crashpoint = Lockdoc_db.Crashpoint
module Derivator = Lockdoc_core.Derivator
module Rule = Lockdoc_core.Rule
module Online = Lockdoc_stream.Online
module Obs = Lockdoc_obs.Obs
module Json = Lockdoc_obs.Json
module Report = Lockdoc_core.Report

let c_accepts = Obs.counter "serve.accepts"
let c_conn_rejects = Obs.counter "serve.conn_rejects"
let c_hellos = Obs.counter "serve.hellos"
let c_frames = Obs.counter "serve.frames"
let c_rows = Obs.counter "serve.rows"
let c_events = Obs.counter "serve.events"
let c_nacks = Obs.counter "serve.nacks"
let c_retry_after = Obs.counter "serve.retry_after"
let c_garbled = Obs.counter "serve.garbled"
let c_proto_errors = Obs.counter "serve.proto_errors"
let c_session_failures = Obs.counter "serve.session_failures"
let c_restarts = Obs.counter "serve.restarts"
let c_idle_closes = Obs.counter "serve.idle_closes"
let c_seals = Obs.counter "serve.seals"
let c_rebuilds = Obs.counter "serve.rebuilds"
let c_supersedes = Obs.counter "serve.supersedes"
let c_queries = Obs.counter "serve.queries"
let c_stream_queries = Obs.counter "serve.stream_queries"
let c_subscribes = Obs.counter "serve.subscribes"
let c_pushes = Obs.counter "serve.pushes"
let g_sessions = Obs.gauge "serve.sessions"
let g_conns = Obs.gauge "serve.conns"
let h_seal = Obs.histogram "serve.seal_ms"
let h_rebuild = Obs.histogram "serve.rebuild_ms"

(* ---- Configuration ------------------------------------------------ *)

(* Largest client frame accepted: bounds the rows one [on_bytes] call
   can apply. *)
let max_frame = 1 lsl 20

type config = {
  max_clients : int;
  session_timeout : float;
  durable_root : string option;
  retry_after_ms : int;
  restart_backoff : float;
  max_backoff : float;
  max_restarts : int;
  tac : float;
  sub_debounce_events : int;
  sub_min_interval : float;
}

let default_config =
  {
    max_clients = 64;
    session_timeout = 30.;
    durable_root = None;
    retry_after_ms = 50;
    restart_backoff = 0.1;
    max_backoff = 5.;
    max_restarts = 5;
    tac = 0.9;
    sub_debounce_events = 512;
    sub_min_interval = 0.1;
  }

(* ---- State -------------------------------------------------------- *)

type sealed = {
  sd_events : int;
  sd_rules : string;
  sd_violations : string;
  sd_rule_objs : (string * string) list;
      (* (rule key, single-object JSON) per mined rule, in rule order;
         concatenating the objects reproduces [sd_rules] byte for byte.
         Kept so a late subscriber still gets a keyed snapshot push. *)
}

(* Layout rows precede event rows, so a streaming session holds its
   layouts until the first event row and then the online engine built
   over all of them. *)
type state =
  | Layouts of Layout.t list  (* streaming, no event yet; newest first *)
  | Live of Online.t  (* streaming, events fed *)
  | Sealed of sealed
  | Failed of string

(* The publication ledger of a subscribed connection: what it last saw,
   so pushes carry deltas and silence means "nothing changed". *)
type ledger = {
  l_pub : (string * string) list;  (* (key, obj) at the last push *)
  l_pos : int;  (* events at the last push *)
  l_at : float;  (* time of the last push *)
}

type session = {
  s_id : string;
  mutable s_conn : int option;
  mutable s_state : state;
  mutable s_accepted : int;  (* rows applied (layouts incl.) *)
  s_scanner : Event.scanner;  (* interns this session's names and locations *)
  s_buf : Buffer.t;  (* where the session's JSON replies are written *)
  mutable s_journal : Durable.writer option;  (* durable, events fed *)
  mutable s_restarts : int;
  mutable s_not_before : float;
  mutable s_last_activity : float;
  mutable s_ledger : ledger option;  (* the attached connection subscribed *)
}

type conn = {
  c_id : int;
  c_decoder : Frame.decoder;
  mutable c_session : string option;
  mutable c_last_activity : float;
}

type t = {
  cfg : config;
  conns : (int, conn) Hashtbl.t;
  sessions : (string, session) Hashtbl.t;
  mutable next_conn : int;
  mutable shutdown : bool;
}

type output = Send of int * Proto.server_msg | Close of int * string

let create ?(config = default_config) () =
  (match config.durable_root with
  | Some root when not (Sys.file_exists root) -> Sys.mkdir root 0o755
  | Some root when not (Sys.is_directory root) ->
      raise (Sys_error (root ^ ": Not a directory"))
  | _ -> ());
  {
    cfg = config;
    conns = Hashtbl.create 16;
    sessions = Hashtbl.create 16;
    next_conn = 0;
    shutdown = false;
  }

let shutting_down t = t.shutdown
let n_conns t = Hashtbl.length t.conns
let n_sessions t = Hashtbl.length t.sessions

let sorted_keys tbl compare =
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])

(* ---- Introspection ------------------------------------------------ *)

type session_view = {
  v_id : string;
  v_state : string;
  v_accepted : int;
  v_restarts : int;
  v_attached : bool;
}

let state_string = function
  | Layouts _ | Live _ -> "streaming"
  | Sealed _ -> "sealed"
  | Failed reason -> "failed: " ^ reason

let sessions t =
  List.map
    (fun id ->
      let s = Hashtbl.find t.sessions id in
      {
        v_id = s.s_id;
        v_state = state_string s.s_state;
        v_accepted = s.s_accepted;
        v_restarts = s.s_restarts;
        v_attached = s.s_conn <> None;
      })
    (sorted_keys t.sessions String.compare)

let status_json t =
  let open Report in
  to_string
    (O
       [
         ("clients", I (Hashtbl.length t.conns));
         ("sessions", I (Hashtbl.length t.sessions));
         ("shutting_down", S (string_of_bool t.shutdown));
         ( "session",
           L
             (List.map
                (fun v ->
                  O
                    [
                      ("id", S v.v_id);
                      ("state", S v.v_state);
                      ("accepted_rows", I v.v_accepted);
                      ("restarts", I v.v_restarts);
                      ("attached", S (string_of_bool v.v_attached));
                    ])
                (sessions t)) );
       ])

(* ---- Session helpers ---------------------------------------------- *)

let valid_session_id id =
  id <> ""
  && String.length id <= 64
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '-' || c = '_' || c = '.')
       id

let session_dir t id =
  Option.map (fun root -> Filename.concat root ("session-" ^ id))
    t.cfg.durable_root

let fresh_session id ~now =
  {
    s_id = id;
    s_conn = None;
    s_state = Layouts [];
    s_accepted = 0;
    s_scanner = Event.scanner ();
    s_buf = Buffer.create 4096;
    s_journal = None;
    s_restarts = 0;
    s_not_before = now;
    s_last_activity = now;
    s_ledger = None;
  }

(* Sessions run the online derivator: the wrapped import engine is fed
   exactly as a batch import would be, and the dataset it keeps folded
   lets the [stream] query answer current rules without sealing. The
   engine is built once every layout row is in: at the first event row,
   or at a seal, where a durable session's writer starts too. *)
let engine t s =
  match s.s_state with
  | Live o -> o
  | Layouts ls ->
      let eng = Import.engine (List.rev ls) in
      s.s_journal <-
        Option.map (fun dir -> Durable.start ~dir eng) (session_dir t s.s_id);
      let o = Online.create eng in
      s.s_state <- Live o;
      o
  | Sealed _ | Failed _ -> invalid_arg "Server.engine: session not streaming"

type parsed_row = P_layout of Layout.t | P_event of Event.t

(* One rows-frame row: a ["T\t"] layout row or an event row, scanned
   with the session's intern table. Raises [Failure] on a row that does
   not parse. *)
let parse_row s line =
  if String.length line >= 2 && line.[0] = 'T' && line.[1] = '\t' then
    P_layout (Layout.of_string (String.sub line 2 (String.length line - 2)))
  else P_event (Event.parse s.s_scanner line)

(* Rebuild a session from its durable directory: the last checkpoint
   and the valid journal tail past it. The watermark counts the layout
   rows (one data type each) and the events fed. Without a checkpoint
   (none configured, or no event row yet) the session starts at row 0. *)
let rebuild_session t id ~now =
  let s = fresh_session id ~now in
  let t0 = if Obs.enabled () then Obs.Clock.wall () else 0. in
  (match Option.bind (session_dir t id) (fun dir -> Durable.reopen ~dir) with
  | None -> ()
  | Some w ->
      let o = Online.create (Durable.engine w) in
      s.s_journal <- Some w;
      s.s_state <- Live o;
      s.s_accepted <- Store.n_data_types (Online.store o) + Online.position o;
      Obs.incr c_rebuilds;
      if Obs.enabled () then
        Obs.observe h_rebuild (1000. *. (Obs.Clock.wall () -. t0)));
  Hashtbl.replace t.sessions id s;
  s

let close_journal s =
  Option.iter (fun w -> try Durable.close w with _ -> ()) s.s_journal;
  s.s_journal <- None

(* Supervisor: a worker exception tears down the session's in-memory
   state and tombstones it behind a capped exponential backoff. The
   durable journal survives, so a reconnecting client resumes from its
   checkpoint; without durability it simply restarts from row zero. *)
let session_fail t s ~now exn =
  let reason = Printexc.to_string exn in
  Obs.incr c_session_failures;
  close_journal s;
  s.s_accepted <- 0;
  s.s_restarts <- s.s_restarts + 1;
  let backoff =
    min t.cfg.max_backoff
      (t.cfg.restart_backoff *. (2. ** float_of_int (s.s_restarts - 1)))
  in
  s.s_not_before <- now +. backoff;
  s.s_state <- Failed reason;
  s.s_ledger <- None;
  let outs =
    match s.s_conn with
    | Some cid ->
        [
          Send (cid, Proto.Err { code = "session-failed"; reason });
          Close (cid, "session-failed");
        ]
    | None -> []
  in
  s.s_conn <- None;
  outs

let detach t cid =
  match Hashtbl.find_opt t.conns cid with
  | None -> ()
  | Some c ->
      (match c.c_session with
      | Some sid -> (
          match Hashtbl.find_opt t.sessions sid with
          | Some s when s.s_conn = Some cid ->
              s.s_conn <- None;
              (* Subscriptions are per attached connection. *)
              s.s_ledger <- None
          | _ -> ())
      | None -> ());
      Hashtbl.remove t.conns cid

(* ---- Connection lifecycle ----------------------------------------- *)

let accept t ~now =
  let id = t.next_conn in
  t.next_conn <- id + 1;
  if t.shutdown then begin
    Obs.incr c_conn_rejects;
    (id, [ Send (id, Proto.Err { code = "shutting-down"; reason = "daemon \
                                                                   is shutting down" });
           Close (id, "shutting-down") ])
  end
  else if Hashtbl.length t.conns >= t.cfg.max_clients then begin
    Obs.incr c_conn_rejects;
    ( id,
      [
        Send
          ( id,
            Proto.Retry_after
              {
                ms = t.cfg.retry_after_ms;
                reason =
                  Printf.sprintf "at max-clients (%d)" t.cfg.max_clients;
              } );
        Close (id, "too-many-clients");
      ] )
  end
  else begin
    Obs.incr c_accepts;
    Hashtbl.replace t.conns id
      {
        c_id = id;
        c_decoder = Frame.decoder ~max_frame ();
        c_session = None;
        c_last_activity = now;
      };
    (id, [])
  end

let on_close t ~now:_ cid = detach t cid

(* ---- Message handling --------------------------------------------- *)

let proto_error t c reason =
  Obs.incr c_proto_errors;
  detach t c.c_id;
  [
    Send (c.c_id, Proto.Err { code = "proto"; reason });
    Close (c.c_id, "protocol-error");
  ]

let handle_hello t c ~now version session_id =
  Obs.incr c_hellos;
  if version <> Proto.version then begin
    Obs.incr c_proto_errors;
    detach t c.c_id;
    [
      Send
        ( c.c_id,
          Proto.Err
            {
              code = "version";
              reason =
                Printf.sprintf "protocol version %d, server speaks %d" version
                  Proto.version;
            } );
      Close (c.c_id, "version-mismatch");
    ]
  end
  else if not (valid_session_id session_id) then
    proto_error t c (Printf.sprintf "invalid session id %S" session_id)
  else if c.c_session <> None then
    proto_error t c "second hello on one connection"
  else begin
    let session =
      match Hashtbl.find_opt t.sessions session_id with
      | Some s -> `Existing s
      | None -> `Absent
    in
    match session with
    | `Existing s when s.s_restarts > t.cfg.max_restarts ->
        detach t c.c_id;
        [
          Send
            ( c.c_id,
              Proto.Err
                {
                  code = "permanent-failure";
                  reason =
                    Printf.sprintf "session failed %d times; giving up"
                      s.s_restarts;
                } );
          Close (c.c_id, "permanent-failure");
        ]
    | `Existing s when now < s.s_not_before ->
        Obs.incr c_retry_after;
        detach t c.c_id;
        [
          Send
            ( c.c_id,
              Proto.Retry_after
                {
                  ms =
                    int_of_float (ceil ((s.s_not_before -. now) *. 1000.));
                  reason = "session restarting (backoff)";
                } );
          Close (c.c_id, "backoff");
        ]
    | (`Existing _ | `Absent) as found -> (
        try
          let s =
            match found with
            | `Existing ({ s_state = Failed _; _ } as old) ->
                (* Restart: rebuild from the journal (durable) or from
                   scratch, keeping the supervisor's restart ledger. *)
                Obs.incr c_restarts;
                let s = rebuild_session t session_id ~now in
                s.s_restarts <- old.s_restarts;
                s.s_not_before <- old.s_not_before;
                s
            | `Existing s -> s
            | `Absent -> rebuild_session t session_id ~now
          in
          (* One live connection per session: a reconnect (the client
             died and came back before we noticed) supersedes the old
             connection rather than fighting it. *)
          let superseded =
            match s.s_conn with
            | Some old when old <> c.c_id && Hashtbl.mem t.conns old ->
                Obs.incr c_supersedes;
                (match Hashtbl.find_opt t.conns old with
                | Some oc -> oc.c_session <- None
                | None -> ());
                Hashtbl.remove t.conns old;
                [
                  Send (old, Proto.Closing { reason = "superseded" });
                  Close (old, "superseded");
                ]
            | _ -> []
          in
          s.s_conn <- Some c.c_id;
          (* A fresh attachment never inherits the old connection's
             subscription; the new client asks for its own. *)
          s.s_ledger <- None;
          s.s_last_activity <- now;
          c.c_session <- Some session_id;
          superseded @ [ Send (c.c_id, Proto.Welcome { resume = s.s_accepted }) ]
        with exn -> (
          (* A rebuild that dies (e.g. on an unreadable session
             directory) is a session failure like any other. *)
          match Hashtbl.find_opt t.sessions session_id with
          | Some s ->
              let outs = session_fail t s ~now exn in
              detach t c.c_id;
              outs
              @ [
                  Send
                    ( c.c_id,
                      Proto.Err
                        {
                          code = "session-failed";
                          reason = Printexc.to_string exn;
                        } );
                  Close (c.c_id, "session-failed");
                ]
          | None -> proto_error t c (Printexc.to_string exn)))
  end

(* Apply one fresh row. A layout is recorded; an event is fed to the
   online engine, through the durable writer when there is one, which
   journals it once the engine took it. The crash point makes the
   worker hot path seedable: an armed [Crashpoint] kills exactly this
   session, and the chaos/supervision tests assert the daemon and the
   other sessions never notice. *)
let apply_row t s p =
  (match p with
  | P_layout l -> (
      match s.s_state with
      | Layouts ls -> s.s_state <- Layouts (l :: ls)
      | _ -> failwith "layout after events")
  | P_event ev ->
      Crashpoint.hit "serve.feed";
      let o = engine t s in
      (match s.s_journal with
      | None -> Online.feed o ev
      | Some w ->
          Durable.feed w ev;
          Online.absorb o);
      Obs.incr c_events);
  s.s_accepted <- s.s_accepted + 1

let handle_rows t c s ~now start lines =
  match s.s_state with
  | Failed reason ->
      (* Unreachable through the normal flow (a failed session has no
         attached connection), kept for defence in depth. *)
      proto_error t c ("session failed: " ^ reason)
  | Sealed _ -> proto_error t c "rows after seal"
  | Layouts _ | Live _ -> (
      Obs.incr c_rows;
      if start > s.s_accepted then begin
        (* Sequence gap: a frame was lost in transit. *)
        Obs.incr c_nacks;
        [ Send (c.c_id, Proto.Nack { expected = s.s_accepted }) ]
      end
      else
        let skip = s.s_accepted - start in
        let fresh =
          if skip = 0 then lines
          else List.filteri (fun i _ -> i >= skip) lines
        in
        if fresh = [] then []  (* pure retransmission; nothing new *)
        else
          (* Validate the fresh rows before accepting any of them: a row
             that does not parse rejects the frame atomically, so the
             journal only ever holds well-formed rows. Rows the session
             already accepted are neither parsed again nor judged. *)
          match List.map (parse_row s) fresh with
          | exception Failure reason ->
              proto_error t c ("unparseable row: " ^ reason)
          | parsed_fresh -> (
              let layout_after_event =
                ref (match s.s_state with Live _ -> true | _ -> false)
              in
              let misordered =
                List.exists
                  (function
                    | P_layout _ -> !layout_after_event
                    | P_event _ ->
                        layout_after_event := true;
                        false)
                  parsed_fresh
              in
              if misordered then proto_error t c "layout row after event rows"
              else
                (* Apply in this call. A row the engine rejects fails
                   the session here; the rows before it stay applied
                   and journaled, so a reconnect resumes at it. *)
                try
                  Crashpoint.hit "serve.rows";
                  List.iter (apply_row t s) parsed_fresh;
                  s.s_last_activity <- now;
                  []
                with exn ->
                  let outs = session_fail t s ~now exn in
                  detach t c.c_id;
                  outs))

(* ---- Replies: one view of the session ----------------------------- *)

let mined_key (m : Derivator.mined) =
  m.Derivator.m_type ^ "/" ^ m.Derivator.m_member ^ "/"
  ^ Rule.access_to_string m.Derivator.m_kind

(* Replies are written into the session's buffer and copied out once.
   Arrays join their elements with bare commas, so [Report.add_array]
   over the memoized objects is [Report.mined_to_json] (or
   [Report.violations_to_json]) of the same list, byte for byte —
   checked by the byte-identity oracle on the stream, push and sealed
   paths. *)
let reply s write = Report.fill s.s_buf write

let add_rules b rules =
  Report.add_array (fun b (_, obj) -> Buffer.add_string b obj) b rules

let add_violations b vs =
  Report.add_array (fun b (_, objs) -> Buffer.add_string b objs) b vs

(* What a session says right now: every reply is written from it. *)
type view = {
  state : string;
  events : int;
  rules : Buffer.t -> unit;  (* writes the rules array *)
  keyed : unit -> (string * string) list;  (* (rule key, object), in rule order *)
  violations : Buffer.t -> unit;  (* writes the violations array *)
}

(* A live view freezes through [Online.freeze_report]: every rule with
   its memoized object, and the violation objects of each rule that has
   any, so a freeze costs in proportion to the groups that changed
   since the last one. Rule keys are computed only when [keyed] is
   asked for — by a subscription or a seal, never by a [stream]
   query. A session with no event yet answers empty arrays without
   building its engine. *)
let view t s =
  let literal str b = Buffer.add_string b str in
  match s.s_state with
  | Layouts _ ->
      { state = "streaming"; events = 0; rules = literal "[]";
        keyed = (fun () -> []); violations = literal "[]" }
  | Live onl ->
      let rules, vs = Online.freeze_report ~tac:t.cfg.tac onl in
      { state = "streaming"; events = Online.position onl;
        rules = (fun b -> add_rules b rules);
        keyed = (fun () -> List.map (fun (m, obj) -> (mined_key m, obj)) rules);
        violations = (fun b -> add_violations b vs) }
  | Sealed sd ->
      { state = "sealed"; events = sd.sd_events; rules = literal sd.sd_rules;
        keyed = (fun () -> sd.sd_rule_objs);
        violations = literal sd.sd_violations }
  | Failed _ -> invalid_arg "Server.view: failed session"

(* The fields every rules reply starts with, and the ones it ends with. *)
let add_head b s ~push v =
  Buffer.add_string b {|{"session":|};
  Json.add_string b s.s_id;
  if push then Buffer.add_string b {|,"push":"rules"|};
  Buffer.add_string b {|,"state":"|};
  Buffer.add_string b v.state;
  Buffer.add_string b {|","events":|};
  Buffer.add_string b (string_of_int v.events);
  Buffer.add_string b {|,"accepted_rows":|};
  Buffer.add_string b (string_of_int s.s_accepted)

let add_tail b v =
  Buffer.add_string b {|,"rules":|};
  v.rules b;
  Buffer.add_string b {|,"violations":|};
  v.violations b;
  Buffer.add_char b '}'

(* Which rules changed since the subscriber's last push: [added] is
   every (key, obj) that is new or whose object differs, [removed] the
   keys that vanished. Comparison is on the JSON bytes, so a support
   shift alone republished the rule — that is the point of pushing. *)
let rules_delta ~prev ~next =
  let old = Hashtbl.create 16 in
  List.iter (fun (k, o) -> Hashtbl.replace old k o) prev;
  let added =
    List.filter
      (fun (k, o) ->
        match Hashtbl.find_opt old k with
        | Some o' -> not (String.equal o o')
        | None -> true)
      next
  in
  let kept = Hashtbl.create 16 in
  List.iter (fun (k, _) -> Hashtbl.replace kept k ()) next;
  let removed = List.filter_map
      (fun (k, _) -> if Hashtbl.mem kept k then None else Some k) prev
  in
  (added, removed)

(* Advance the subscriber's ledger to [v] and push the delta from
   [prev] — unless nothing changed and the push is not [always] due. *)
let publish s cid ~now ~always ~prev v =
  let objs = v.keyed () in
  let added, removed = rules_delta ~prev ~next:objs in
  s.s_ledger <- Some { l_pub = objs; l_pos = v.events; l_at = now };
  if (not always) && added = [] && removed = [] then []
  else begin
    Obs.incr c_pushes;
    let json =
      reply s (fun b ->
          add_head b s ~push:true v;
          Buffer.add_string b {|,"added":|};
          add_rules b added;
          Buffer.add_string b {|,"removed":|};
          Report.add_array Json.add_string b removed;
          add_tail b v)
    in
    [ Send (cid, Proto.Info { json }) ]
  end

let sealed_msg sd =
  Proto.Sealed
    { events = sd.sd_events; rules = sd.sd_rules; violations = sd.sd_violations }

(* Seal on the loop: finalize and freeze the engine, and cache the
   result. Replies go to the attached connection: the subscriber's
   final push (its last delta) first, then [Sealed]. *)
let seal t s ~now =
  Crashpoint.hit "serve.seal";
  let t0 = if Obs.enabled () then Obs.Clock.wall () else 0. in
  (* No final checkpoint: the journal holds every row, so a rebuild
     comes back at the full watermark. *)
  let o = engine t s in
  close_journal s;
  let _stats = Online.finalize o in
  let v = view t s in
  let sd =
    {
      sd_events = v.events;
      sd_rules = reply s v.rules;
      sd_violations = reply s v.violations;
      sd_rule_objs = v.keyed ();
    }
  in
  if Obs.enabled () then
    Obs.observe h_seal (1000. *. (Obs.Clock.wall () -. t0));
  s.s_state <- Sealed sd;
  s.s_last_activity <- now;
  Obs.incr c_seals;
  match (s.s_conn, s.s_ledger) with
  | Some cid, Some l ->
      publish s cid ~now ~always:true ~prev:l.l_pub (view t s)
      @ [ Send (cid, sealed_msg sd) ]
  | Some cid, None -> [ Send (cid, sealed_msg sd) ]
  | None, _ -> []

let handle_seal t c s ~now rows =
  match s.s_state with
  | Failed reason -> proto_error t c ("session failed: " ^ reason)
  | Sealed sd ->
      (* Idempotent re-seal: answer the cached result. *)
      s.s_last_activity <- now;
      [ Send (c.c_id, sealed_msg sd) ]
  | Layouts _ | Live _ when rows <> s.s_accepted ->
      (* The client streamed [rows] rows but some never arrived (or it
         rewound short): answer the watermark instead of sealing a
         truncated stream. *)
      Obs.incr c_nacks;
      [ Send (c.c_id, Proto.Nack { expected = s.s_accepted }) ]
  | Layouts _ | Live _ -> (
      try seal t s ~now
      with exn ->
        let outs = session_fail t s ~now exn in
        detach t c.c_id;
        outs)

let handle_query t c q =
  Obs.incr c_queries;
  let json =
    match q with
    | Proto.Status -> status_json t
    | Proto.Metrics -> Obs.to_json_string ()
    | Proto.Stream_rules -> assert false (* routed through handle_stream *)
  in
  [ Send (c.c_id, Proto.Info { json }) ]

(* Answer from the session's current view. A streaming session counts
   as active and passes the [serve.stream] crash point; an exception
   there fails the session. A sealed one answers its cached result. *)
let with_view t c s ~now f =
  match s.s_state with
  | Failed reason -> proto_error t c ("session failed: " ^ reason)
  | Sealed _ -> f (view t s)
  | Layouts _ | Live _ -> (
      try
        Crashpoint.hit "serve.stream";
        s.s_last_activity <- now;
        f (view t s)
      with exn ->
        let outs = session_fail t s ~now exn in
        detach t c.c_id;
        outs)

(* The [stream] query: answer the session's current rules from the
   online derivator. Every accepted row is already applied, so freezing
   the derivator answers all of them — the store is never sealed, so
   the client keeps feeding afterwards. *)
let handle_stream t c s ~now =
  Obs.incr c_queries;
  Obs.incr c_stream_queries;
  with_view t c s ~now (fun v ->
      let json = reply s (fun b -> add_head b s ~push:false v; add_tail b v) in
      [ Send (c.c_id, Proto.Info { json }) ])

(* Register the attached connection for push rule updates. The reply is
   an immediate snapshot push (added = every current rule) so the
   subscriber starts from a known state; subsequent pushes are deltas
   computed against the publication ledger in [step]. *)
let handle_subscribe t c s ~now =
  Obs.incr c_subscribes;
  with_view t c s ~now (fun v ->
      s.s_last_activity <- now;
      publish s c.c_id ~now ~always:true ~prev:[] v)

(* The step-time half of subscriptions: once the derivation has
   drifted past the debounce — enough new events AND enough elapsed
   time — freeze and push the delta (the bytes a [stream] query at this
   instant would answer). An unchanged freeze advances the
   ledger silently: subscribers only hear about change. *)
let session_push t s ~now =
  match (s.s_conn, s.s_state, s.s_ledger) with
  | Some cid, Live onl, Some l
    when Online.position onl - l.l_pos >= t.cfg.sub_debounce_events
         && now -. l.l_at >= t.cfg.sub_min_interval -> (
      try publish s cid ~now ~always:false ~prev:l.l_pub (view t s)
      with exn -> session_fail t s ~now exn)
  | _ -> []

let handle_shutdown t c =
  t.shutdown <- true;
  let others =
    List.filter_map
      (fun cid ->
        if cid = c.c_id then None
        else Some [ Send (cid, Proto.Closing { reason = "shutdown" });
                    Close (cid, "shutdown") ])
      (sorted_keys t.conns compare)
  in
  let outs =
    [ Send (c.c_id, Proto.Closing { reason = "shutdown" });
      Close (c.c_id, "shutdown") ]
    :: others
  in
  Hashtbl.reset t.conns;
  Hashtbl.iter (fun _ s -> s.s_conn <- None) t.sessions;
  List.concat outs

let with_session t c ~f =
  match c.c_session with
  | None -> proto_error t c "message before hello"
  | Some sid -> (
      match Hashtbl.find_opt t.sessions sid with
      | None -> proto_error t c "session vanished"
      | Some s -> f s)

let handle_msg t c ~now msg =
  match msg with
  | Proto.Hello { version; session } -> handle_hello t c ~now version session
  | Proto.Rows { start; lines } ->
      with_session t c ~f:(fun s -> handle_rows t c s ~now start lines)
  | Proto.Seal { rows } ->
      with_session t c ~f:(fun s -> handle_seal t c s ~now rows)
  | Proto.Query Proto.Stream_rules ->
      with_session t c ~f:(fun s -> handle_stream t c s ~now)
  | Proto.Query q -> handle_query t c q
  | Proto.Subscribe ->
      with_session t c ~f:(fun s -> handle_subscribe t c s ~now)
  | Proto.Ping -> [ Send (c.c_id, Proto.Pong) ]
  | Proto.Bye ->
      (match c.c_session with
      | Some sid -> (
          match Hashtbl.find_opt t.sessions sid with
          | Some s -> s.s_last_activity <- now
          | None -> ())
      | None -> ());
      detach t c.c_id;
      [ Send (c.c_id, Proto.Closing { reason = "bye" }); Close (c.c_id, "bye") ]
  | Proto.Shutdown -> handle_shutdown t c

let on_bytes t ~now cid bytes =
  match Hashtbl.find_opt t.conns cid with
  | None -> []  (* late bytes for a connection we already closed *)
  | Some c ->
      c.c_last_activity <- now;
      Frame.feed c.c_decoder bytes;
      let outs = ref [] in
      let stop = ref false in
      while not !stop do
        (* The connection may have been closed by its own message
           (protocol error, bye, shutdown): stop draining then. *)
        if not (Hashtbl.mem t.conns cid) then stop := true
        else
          match Frame.next c.c_decoder with
          | Frame.Awaiting -> stop := true
          | Frame.Frame payload -> (
              Obs.incr c_frames;
              match Proto.client_of_payload payload with
              | Ok msg -> outs := !outs @ handle_msg t c ~now msg
              | Error reason -> outs := !outs @ proto_error t c reason)
          | Frame.Corrupt reason ->
              Obs.incr c_garbled;
              detach t cid;
              outs :=
                !outs
                @ [
                    Send (cid, Proto.Err { code = "garbled"; reason });
                    Close (cid, "garbled");
                  ];
              stop := true
      done;
      !outs

(* ---- The periodic step -------------------------------------------- *)

let step t ~now =
  let outs = ref [] in
  (* Idle connections: a peer that has gone silent past the timeout is
     closed; its session stays resumable. *)
  List.iter
    (fun cid ->
      match Hashtbl.find_opt t.conns cid with
      | Some c when now -. c.c_last_activity > t.cfg.session_timeout ->
          Obs.incr c_idle_closes;
          detach t cid;
          outs :=
            !outs
            @ [
                Send (cid, Proto.Closing { reason = "idle-timeout" });
                Close (cid, "idle-timeout");
              ]
      | _ -> ())
    (sorted_keys t.conns compare);
  (* Debounced rule pushes to subscribed connections. *)
  List.iter
    (fun sid ->
      match Hashtbl.find_opt t.sessions sid with
      | None -> ()
      | Some s -> outs := !outs @ session_push t s ~now)
    (sorted_keys t.sessions String.compare);
  (* Detached healthy sessions idle past the timeout are garbage
     collected; durable ones remain resumable from their on-disk
     journal. Failed sessions keep their tombstone (and with it the
     supervisor's restart ledger and backoff clock). *)
  List.iter
    (fun sid ->
      match Hashtbl.find_opt t.sessions sid with
      | Some ({ s_state = Layouts _ | Live _ | Sealed _; s_conn = None; _ } as s)
        when now -. s.s_last_activity > t.cfg.session_timeout ->
          close_journal s;
          Hashtbl.remove t.sessions sid
      | _ -> ())
    (sorted_keys t.sessions String.compare);
  if Obs.enabled () then begin
    Obs.set_gauge g_sessions (float_of_int (Hashtbl.length t.sessions));
    Obs.set_gauge g_conns (float_of_int (Hashtbl.length t.conns))
  end;
  !outs

(* ---- Helpers for front ends --------------------------------------- *)

let encode_output = function
  | Send (cid, msg) ->
      (cid, `Send (Frame.encode (Proto.server_to_payload msg)))
  | Close (cid, reason) -> (cid, `Close reason)
