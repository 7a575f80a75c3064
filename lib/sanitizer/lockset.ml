(* Eraser-style lockset race detection over the relational store.

   One state machine per (allocation, member) — the paper's analysis
   granularity — with the classic Virgin / Exclusive / Shared /
   Shared-Modified lattice and a candidate lockset that starts as the
   full universe and is intersected on every post-exclusive access:
   reads refine with every held lock (reader-side protection counts),
   writes refine with the exclusively-held locks only.

   Two deliberate deviations from plain Eraser keep the false-positive
   rate at zero on the simulator's clean traces:

   - an access is {e skipped} when it sits inside an RCU or seqlock
     read section (shared-side Rcu/Seqlock held): such readers are
     protected by the publish/retry protocol, not by the writer's
     locks, and must neither transition the state machine nor empty the
     writer's candidate set;

   - an empty candidate set alone is not reported. The report fires
     only when the {e triggering} access is bare — a write with no
     exclusively-held lock, or a read with no lock at all. Benign
     mixed-discipline members (an unlocked init-phase store followed by
     consistently locked use, or opportunistic lock-free peeks that are
     re-checked under the lock) empty the candidate set without ever
     racing on a bare access; the kernel's idiomatic patterns survive,
     the seeded lock-free accesses do not.

   Teardown quiescence (umount, eviction, cache shrinking) is single
   threaded by construction, so accesses whose call stack contains one
   of the shutdown entry points are exempt, mirroring the importer's
   init/teardown filter. *)

module Store = Lockdoc_db.Store
module Schema = Lockdoc_db.Schema
module Event = Lockdoc_trace.Event
module Srcloc = Lockdoc_trace.Srcloc
module Obs = Lockdoc_obs.Obs

let c_accesses = Obs.counter "sanitize.lockset.accesses"
let c_skipped_rcu = Obs.counter "sanitize.lockset.skipped_rcu"
let c_skipped_quiescent = Obs.counter "sanitize.lockset.skipped_quiescent"
let c_races = Obs.counter "sanitize.lockset.races"

module Iset = Set.Make (Int)

type witness = {
  w_event : int;  (** trace index of the first bare racy access *)
  w_kind : Event.access_kind;
  w_ctx : int;
  w_loc : Srcloc.t;
  w_stack : string list;  (** innermost frame first *)
}

type race = {
  r_type : string;
  r_member : string;
  r_instances : int;  (** racy object instances *)
  r_bare : int;  (** bare accesses on emptied candidate sets, folded *)
  r_witness : witness;
}

(* Shutdown entry points whose callees run single threaded. *)
let quiescent_frames =
  [
    "evict"; "evict_inodes"; "generic_shutdown_super"; "sync_filesystem";
    "prune_icache"; "shrink_dcache_sb";
  ]

let is_quiescent stack =
  List.exists (fun frame -> List.mem frame quiescent_frames) stack

type lstate = Virgin | Excl of int | Shared | SharedMod

type mstate = {
  mutable st : lstate;
  mutable cand : Iset.t option;  (** [None] = full universe *)
  mutable bare : int;
  mutable witness : witness option;
}

let held_of store (a : Schema.access) =
  match a.Schema.ac_txn with
  | None -> []
  | Some t -> (Store.txn store t).Schema.tx_locks

let in_rcu_read_section store held =
  List.exists
    (fun (h : Schema.held) ->
      h.Schema.h_side = Event.Shared
      &&
      match (Store.lock store h.Schema.h_lock).Schema.lk_kind with
      | Event.Rcu | Event.Seqlock -> true
      | _ -> false)
    held

(* Process the accesses of one (instance, member) stream in trace
   order; returns the race evidence, if any. *)
let step store ms (a : Schema.access) =
  let held = held_of store a in
  let lockset =
    List.fold_left
      (fun acc (h : Schema.held) ->
        match a.Schema.ac_kind with
        | Event.Read -> Iset.add h.Schema.h_lock acc
        | Event.Write ->
            if h.Schema.h_side = Event.Exclusive then
              Iset.add h.Schema.h_lock acc
            else acc)
      Iset.empty held
  in
  let refine () =
    ms.cand <-
      Some
        (match ms.cand with
        | None -> lockset
        | Some c -> Iset.inter c lockset)
  in
  (match ms.st with
  | Virgin -> ms.st <- Excl a.Schema.ac_ctx
  | Excl ctx when ctx = a.Schema.ac_ctx -> ()
  | Excl _ ->
      ms.st <-
        (match a.Schema.ac_kind with
        | Event.Read -> Shared
        | Event.Write -> SharedMod);
      refine ()
  | Shared ->
      if a.Schema.ac_kind = Event.Write then ms.st <- SharedMod;
      refine ()
  | SharedMod -> refine ());
  let racy =
    ms.st = SharedMod && ms.cand = Some Iset.empty && Iset.is_empty lockset
  in
  if racy then begin
    ms.bare <- ms.bare + 1;
    if ms.witness = None then
      ms.witness <-
        Some
          {
            w_event = a.Schema.ac_event;
            w_kind = a.Schema.ac_kind;
            w_ctx = a.Schema.ac_ctx;
            w_loc = a.Schema.ac_loc;
            w_stack = Store.stack store a.Schema.ac_stack;
          }
  end

let analyse_instance store accesses =
  let members : (string, mstate) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (a : Schema.access) ->
      Obs.incr c_accesses;
      let held = held_of store a in
      if a.Schema.ac_kind = Event.Read && in_rcu_read_section store held then
        Obs.incr c_skipped_rcu
      else if is_quiescent (Store.stack store a.Schema.ac_stack) then
        Obs.incr c_skipped_quiescent
      else begin
        let ms =
          match Hashtbl.find_opt members a.Schema.ac_member with
          | Some ms -> ms
          | None ->
              let ms =
                { st = Virgin; cand = None; bare = 0; witness = None }
              in
              Hashtbl.add members a.Schema.ac_member ms;
              order := a.Schema.ac_member :: !order;
              ms
        in
        step store ms a
      end)
    accesses;
  List.filter_map
    (fun member ->
      let ms = Hashtbl.find members member in
      match ms.witness with
      | Some w -> Some (member, ms.bare, w)
      | None -> None)
    (List.rev !order)

(* Work items: one per (type key, instance), in (key, allocation id)
   order. *)
let analyse store =
  let items =
    List.concat_map
      (fun key ->
        let by_alloc : (int, Schema.access list) Hashtbl.t =
          Hashtbl.create 64
        in
        let allocs = ref [] in
        List.iter
          (fun (a : Schema.access) ->
            (match Hashtbl.find_opt by_alloc a.Schema.ac_alloc with
            | None ->
                allocs := a.Schema.ac_alloc :: !allocs;
                Hashtbl.add by_alloc a.Schema.ac_alloc [ a ]
            | Some l -> Hashtbl.replace by_alloc a.Schema.ac_alloc (a :: l)))
          (Store.accesses_of_type store key);
        List.map
          (fun al -> (key, List.rev (Hashtbl.find by_alloc al)))
          (List.sort compare !allocs))
      (Store.type_keys store)
  in
  let per_instance =
    List.map (fun (key, accesses) -> (key, analyse_instance store accesses)) items
  in
  (* Merge instance evidence into per (type, member) races: instance
     count, folded bare accesses, earliest witness. *)
  let merged : (string * string, int * int * witness) Hashtbl.t =
    Hashtbl.create 16
  in
  let keys = ref [] in
  List.iter
    (fun (key, findings) ->
      List.iter
        (fun (member, bare, w) ->
          let k = (key, member) in
          match Hashtbl.find_opt merged k with
          | None ->
              keys := k :: !keys;
              Hashtbl.add merged k (1, bare, w)
          | Some (n, b, w0) ->
              let w = if w.w_event < w0.w_event then w else w0 in
              Hashtbl.replace merged k (n + 1, b + bare, w))
        findings)
    per_instance;
  let races =
    List.map
      (fun (r_type, r_member) ->
        let r_instances, r_bare, r_witness =
          Hashtbl.find merged (r_type, r_member)
        in
        { r_type; r_member; r_instances; r_bare; r_witness })
      (List.sort compare !keys)
  in
  Obs.add c_races (List.length races);
  races

let render races =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "lockset: %d racy (type, member) pair(s)\n"
       (List.length races));
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf
           "  %s.%s: %d instance(s), %d bare access(es); first bare %s by \
            flow %d at %s (in %s)\n"
           r.r_type r.r_member r.r_instances r.r_bare
           (match r.r_witness.w_kind with
           | Event.Read -> "read"
           | Event.Write -> "write")
           r.r_witness.w_ctx
           (Srcloc.to_string r.r_witness.w_loc)
           (match r.r_witness.w_stack with f :: _ -> f | [] -> "?")))
    races;
  Buffer.contents buf
