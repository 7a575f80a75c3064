type access_kind = Read | Write

type lock_side = Exclusive | Shared

type lock_kind =
  | Spinlock
  | Rwlock
  | Mutex
  | Semaphore
  | Rwsem
  | Rcu
  | Seqlock
  | Pseudo

type ctx_kind = Task | Softirq | Hardirq

type t =
  | Alloc of { ptr : int; size : int; data_type : string; subclass : string option }
  | Free of { ptr : int }
  | Lock_acquire of {
      lock_ptr : int;
      kind : lock_kind;
      side : lock_side;
      name : string;
      loc : Srcloc.t;
    }
  | Lock_release of { lock_ptr : int; loc : Srcloc.t }
  | Mem_access of { ptr : int; size : int; kind : access_kind; loc : Srcloc.t }
  | Fun_enter of { fn : string; loc : Srcloc.t }
  | Fun_exit of { fn : string }
  | Ctx_switch of { pid : int; kind : ctx_kind }

let lock_kind_to_string = function
  | Spinlock -> "spinlock"
  | Rwlock -> "rwlock"
  | Mutex -> "mutex"
  | Semaphore -> "semaphore"
  | Rwsem -> "rwsem"
  | Rcu -> "rcu"
  | Seqlock -> "seqlock"
  | Pseudo -> "pseudo"

let lock_kind_of_string = function
  | "spinlock" -> Spinlock
  | "rwlock" -> Rwlock
  | "mutex" -> Mutex
  | "semaphore" -> Semaphore
  | "rwsem" -> Rwsem
  | "rcu" -> Rcu
  | "seqlock" -> Seqlock
  | "pseudo" -> Pseudo
  | s -> failwith ("Event.lock_kind_of_string: " ^ s)

let side_to_string = function Exclusive -> "x" | Shared -> "s"

let side_of_string = function
  | "x" -> Exclusive
  | "s" -> Shared
  | s -> failwith ("Event.side_of_string: " ^ s)

let access_to_string = function Read -> "r" | Write -> "w"

let access_of_string = function
  | "r" -> Read
  | "w" -> Write
  | s -> failwith ("Event.access_of_string: " ^ s)

let ctx_to_string = function
  | Task -> "task"
  | Softirq -> "softirq"
  | Hardirq -> "hardirq"

let ctx_of_string = function
  | "task" -> Task
  | "softirq" -> Softirq
  | "hardirq" -> Hardirq
  | s -> failwith ("Event.ctx_of_string: " ^ s)

(* Free-form name fields are escaped so that tabs/newlines in identifiers
   cannot break line framing; source locations are serialised first and
   then escaped as a whole (the file part may contain anything). Escaping
   is per character and never touches ':', digits or '-', so the
   location is written as the escaped file, ':', then the line. *)
let enc = Fieldenc.encode

let dec_loc s = Srcloc.of_string (Fieldenc.decode s)

let enc_subclass = function
  | None -> "-"
  | Some s ->
      (* A literal "-" subclass must not collide with the None marker. *)
      if s = "-" then "\\-" else enc s

let dec_subclass = function
  | "-" -> None
  | s -> Some (Fieldenc.decode s)

(* Decimal digits straight into the buffer; [string_of_int] for the
   rare negative value (and [min_int], which has no positive twin). *)
let rec add_int b n =
  if n < 0 then Buffer.add_string b (string_of_int n)
  else begin
    if n >= 10 then add_int b (n / 10);
    Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))
  end

let add_field b s =
  Buffer.add_char b '\t';
  Buffer.add_string b s

let add_int_field b n =
  Buffer.add_char b '\t';
  add_int b n

let add_loc_field b loc =
  add_field b (enc loc.Srcloc.file);
  Buffer.add_char b ':';
  add_int b loc.Srcloc.line

let add_line b = function
  | Alloc { ptr; size; data_type; subclass } ->
      Buffer.add_char b 'A';
      add_int_field b ptr;
      add_int_field b size;
      add_field b (enc data_type);
      add_field b (enc_subclass subclass)
  | Free { ptr } ->
      Buffer.add_char b 'F';
      add_int_field b ptr
  | Lock_acquire { lock_ptr; kind; side; name; loc } ->
      Buffer.add_string b "L+";
      add_int_field b lock_ptr;
      add_field b (lock_kind_to_string kind);
      add_field b (side_to_string side);
      add_field b (enc name);
      add_loc_field b loc
  | Lock_release { lock_ptr; loc } ->
      Buffer.add_string b "L-";
      add_int_field b lock_ptr;
      add_loc_field b loc
  | Mem_access { ptr; size; kind; loc } ->
      Buffer.add_char b 'M';
      add_int_field b ptr;
      add_int_field b size;
      add_field b (access_to_string kind);
      add_loc_field b loc
  | Fun_enter { fn; loc } ->
      Buffer.add_char b 'E';
      add_field b (enc fn);
      add_loc_field b loc
  | Fun_exit { fn } ->
      Buffer.add_char b 'X';
      add_field b (enc fn)
  | Ctx_switch { pid; kind } ->
      Buffer.add_char b 'C';
      add_int_field b pid;
      add_field b (ctx_to_string kind)

let to_line e =
  let b = Buffer.create 64 in
  add_line b e;
  Buffer.contents b

let arity_of_tag = function
  | "A" -> Some 5
  | "F" -> Some 2
  | "L+" -> Some 6
  | "L-" -> Some 3
  | "M" -> Some 5
  | "E" -> Some 3
  | "X" -> Some 2
  | "C" -> Some 3
  | _ -> None

let of_fields fields line =
  match fields with
  | [ "A"; ptr; size; data_type; subclass ] ->
      Alloc
        {
          ptr = int_of_string ptr;
          size = int_of_string size;
          data_type = Fieldenc.decode data_type;
          subclass = dec_subclass subclass;
        }
  | [ "F"; ptr ] -> Free { ptr = int_of_string ptr }
  | [ "L+"; lock_ptr; kind; side; name; loc ] ->
      Lock_acquire
        {
          lock_ptr = int_of_string lock_ptr;
          kind = lock_kind_of_string kind;
          side = side_of_string side;
          name = Fieldenc.decode name;
          loc = dec_loc loc;
        }
  | [ "L-"; lock_ptr; loc ] ->
      Lock_release { lock_ptr = int_of_string lock_ptr; loc = dec_loc loc }
  | [ "M"; ptr; size; kind; loc ] ->
      Mem_access
        {
          ptr = int_of_string ptr;
          size = int_of_string size;
          kind = access_of_string kind;
          loc = dec_loc loc;
        }
  | [ "E"; fn; loc ] -> Fun_enter { fn = Fieldenc.decode fn; loc = dec_loc loc }
  | [ "X"; fn ] -> Fun_exit { fn = Fieldenc.decode fn }
  | [ "C"; pid; kind ] ->
      Ctx_switch { pid = int_of_string pid; kind = ctx_of_string kind }
  | _ -> failwith ("Event.of_line: malformed line: " ^ line)

let of_line line = of_fields (String.split_on_char '\t' line) line

(* {2 In-place scanner}

   [scan] parses one line slice without splitting it: the tag is matched
   by its characters, fields are walked by index with a cursor, ints are
   read in place, and names and locations come from an intern table
   keyed on the raw slice, so a repeated name or location allocates
   nothing. It accepts only lines whose meaning it is certain of and
   declines every other line — an escape, an int that is not an optional
   '-' and 1 to 18 digits, a wrong arity, an unknown tag or enum — for
   the caller to hand to [of_line], the reference parser and the only
   source of diagnostics. 18 digits cannot overflow a 63-bit int, so on
   an accepted line [int_of_string] would read the same value. *)

exception Decline

type 'a bucket = Nil | Cons of { key : string; value : 'a; next : 'a bucket }

type 'a table = { mutable buckets : 'a bucket array; mutable size : int }

type scanner = {
  names : string table;  (* one string per name and location file *)
  locs : Srcloc.t table;  (* one location per raw location field *)
  mutable pos : int;  (* start of the next field *)
  mutable hash : int;  (* hash of the field [field_end] last walked *)
}

let table () = { buckets = Array.make 256 Nil; size = 0 }

let scanner () = { names = table (); locs = table (); pos = 0; hash = 0 }

(* The same hash [field_end] computes as it walks a field. *)
let rec hash_from s i j h =
  if i = j then h land max_int
  else hash_from s (i + 1) j ((h * 31) + Char.code (String.unsafe_get s i))

let rec same_from key s i k n =
  k = n
  || String.unsafe_get key k = String.unsafe_get s (i + k)
     && same_from key s i (k + 1) n

let slice_is key s i j =
  String.length key = j - i && same_from key s i 0 (j - i)

let rec lookup s i j = function
  | Nil -> Nil
  | Cons c as b -> if slice_is c.key s i j then b else lookup s i j c.next

let slot t h = h land (Array.length t.buckets - 1)

let resize t =
  let old = t.buckets in
  t.buckets <- Array.make (2 * Array.length old) Nil;
  let rec move = function
    | Nil -> ()
    | Cons c ->
        let k = slot t (hash_from c.key 0 (String.length c.key) 0) in
        t.buckets.(k) <- Cons { c with next = t.buckets.(k) };
        move c.next
  in
  Array.iter move old

let add t h key value =
  if t.size >= 2 * Array.length t.buckets then resize t;
  let k = slot t h in
  t.buckets.(k) <- Cons { key; value; next = t.buckets.(k) };
  t.size <- t.size + 1

(* [h] is the hash of [s.[i] .. s.[j - 1]]. *)
let intern_name sc s i j h =
  match lookup s i j sc.names.buckets.(slot sc.names h) with
  | Cons c -> c.value
  | Nil ->
      let key = String.sub s i (j - i) in
      add sc.names h key key;
      key

let rec digits s i j acc =
  if i = j then acc
  else
    match String.unsafe_get s i with
    | '0' .. '9' as c -> digits s (i + 1) j ((acc * 10) + Char.code c - 48)
    | _ -> raise_notrace Decline

(* An optional '-' and 1 to 18 digits filling [s.[i] .. s.[j - 1]]. *)
let int_in s i j =
  let neg = i < j && String.unsafe_get s i = '-' in
  let i = if neg then i + 1 else i in
  if j - i < 1 || j - i > 18 then raise_notrace Decline;
  let v = digits s i j 0 in
  if neg then -v else v

let rec last_colon s i j =
  if j <= i then -1
  else if String.unsafe_get s (j - 1) = ':' then j - 1
  else last_colon s i (j - 1)

let intern_loc sc s i j h =
  match lookup s i j sc.locs.buckets.(slot sc.locs h) with
  | Cons c -> c.value
  | Nil ->
      let colon = last_colon s i j in
      if colon < 0 then raise_notrace Decline;
      let line = int_in s (colon + 1) j in
      let file = intern_name sc s i colon (hash_from s i colon 0) in
      let loc = Srcloc.make file line in
      add sc.locs h (String.sub s i (j - i)) loc;
      loc

(* End of the field that starts at [i] — the next tab, or [stop] — with
   the field's hash left in [sc.hash]. *)
let rec field_end sc s i stop h =
  if i = stop then begin
    sc.hash <- h land max_int;
    stop
  end
  else
    match String.unsafe_get s i with
    | '\t' ->
        sc.hash <- h land max_int;
        i
    | '\\' -> raise_notrace Decline
    | c -> field_end sc s (i + 1) stop ((h * 31) + Char.code c)

(* Walk the field at the cursor and return its end. The last field must
   end at [stop]; any other must end at a tab, which the cursor moves
   past. *)
let next sc s stop ~last =
  let j = field_end sc s sc.pos stop 0 in
  if last then (if j <> stop then raise_notrace Decline)
  else if j = stop then raise_notrace Decline
  else sc.pos <- j + 1;
  j

let int_field sc s stop ~last =
  let i = sc.pos in
  int_in s i (next sc s stop ~last)

let name_field sc s stop ~last =
  let i = sc.pos in
  let j = next sc s stop ~last in
  intern_name sc s i j sc.hash

let loc_field sc s stop =
  let i = sc.pos in
  let j = next sc s stop ~last:true in
  intern_loc sc s i j sc.hash

let lock_kind_field sc s stop =
  let i = sc.pos in
  let j = next sc s stop ~last:false in
  if slice_is "spinlock" s i j then Spinlock
  else if slice_is "mutex" s i j then Mutex
  else if slice_is "rwlock" s i j then Rwlock
  else if slice_is "rwsem" s i j then Rwsem
  else if slice_is "semaphore" s i j then Semaphore
  else if slice_is "rcu" s i j then Rcu
  else if slice_is "seqlock" s i j then Seqlock
  else if slice_is "pseudo" s i j then Pseudo
  else raise_notrace Decline

let side_field sc s stop =
  let i = sc.pos in
  let j = next sc s stop ~last:false in
  if slice_is "x" s i j then Exclusive
  else if slice_is "s" s i j then Shared
  else raise_notrace Decline

let access_field sc s stop =
  let i = sc.pos in
  let j = next sc s stop ~last:false in
  if slice_is "r" s i j then Read
  else if slice_is "w" s i j then Write
  else raise_notrace Decline

let ctx_field sc s stop =
  let i = sc.pos in
  let j = next sc s stop ~last:true in
  if slice_is "task" s i j then Task
  else if slice_is "softirq" s i j then Softirq
  else if slice_is "hardirq" s i j then Hardirq
  else raise_notrace Decline

let subclass_field sc s stop =
  let i = sc.pos in
  let j = next sc s stop ~last:true in
  if slice_is "-" s i j then None else Some (intern_name sc s i j sc.hash)

(* Fields are read in [let] order: the cursor moves as each is read. *)
let scan_exn sc s start stop =
  if stop - start < 2 then raise_notrace Decline;
  if String.unsafe_get s (start + 1) = '\t' then begin
    sc.pos <- start + 2;
    match String.unsafe_get s start with
    | 'M' ->
        let ptr = int_field sc s stop ~last:false in
        let size = int_field sc s stop ~last:false in
        let kind = access_field sc s stop in
        let loc = loc_field sc s stop in
        Mem_access { ptr; size; kind; loc }
    | 'E' ->
        let fn = name_field sc s stop ~last:false in
        let loc = loc_field sc s stop in
        Fun_enter { fn; loc }
    | 'X' -> Fun_exit { fn = name_field sc s stop ~last:true }
    | 'C' ->
        let pid = int_field sc s stop ~last:false in
        let kind = ctx_field sc s stop in
        Ctx_switch { pid; kind }
    | 'A' ->
        let ptr = int_field sc s stop ~last:false in
        let size = int_field sc s stop ~last:false in
        let data_type = name_field sc s stop ~last:false in
        let subclass = subclass_field sc s stop in
        Alloc { ptr; size; data_type; subclass }
    | 'F' -> Free { ptr = int_field sc s stop ~last:true }
    | _ -> raise_notrace Decline
  end
  else if
    String.unsafe_get s start = 'L'
    && stop - start >= 3
    && String.unsafe_get s (start + 2) = '\t'
  then begin
    sc.pos <- start + 3;
    match String.unsafe_get s (start + 1) with
    | '+' ->
        let lock_ptr = int_field sc s stop ~last:false in
        let kind = lock_kind_field sc s stop in
        let side = side_field sc s stop in
        let name = name_field sc s stop ~last:false in
        let loc = loc_field sc s stop in
        Lock_acquire { lock_ptr; kind; side; name; loc }
    | '-' ->
        let lock_ptr = int_field sc s stop ~last:false in
        let loc = loc_field sc s stop in
        Lock_release { lock_ptr; loc }
    | _ -> raise_notrace Decline
  end
  else raise_notrace Decline

let scan sc s start stop =
  if start < 0 || start > stop || stop > String.length s then
    invalid_arg "Event.scan";
  match scan_exn sc s start stop with
  | ev -> Some ev
  | exception Decline -> None

let parse sc line =
  match scan_exn sc line 0 (String.length line) with
  | ev -> ev
  | exception Decline -> of_line line

let pp fmt t = Format.pp_print_string fmt (to_line t)

let equal a b = to_line a = to_line b
