(* The one implementation of [len:int32 LE][crc32:int32 LE][payload]. *)

let header_bytes = 8
let max_len = 1 lsl 26

(* ---- CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) -------------- *)

let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc_sub s off len =
  let c = ref 0xFFFFFFFF in
  for i = off to off + len - 1 do
    let byte = Char.code (String.unsafe_get s i) in
    c := Array.unsafe_get crc_table ((!c lxor byte) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let crc32 s = crc_sub s 0 (String.length s)

(* ---- Writing ------------------------------------------------------ *)

let header payload =
  let b = Bytes.create header_bytes in
  Bytes.set_int32_le b 0 (Int32.of_int (String.length payload));
  Bytes.set_int32_le b 4 (Int32.of_int (crc32 payload));
  Bytes.unsafe_to_string b

let add buf payload =
  Buffer.add_string buf (header payload);
  Buffer.add_string buf payload

(* ---- Reading ------------------------------------------------------ *)

type parsed =
  | Record of { off : int; len : int }
  | Short_header
  | Short_payload of { have : int; want : int }
  | Bad_length of int
  | Bad_crc of { len : int }

let parse ?(max_len = max_len) s ~pos ~lim =
  if lim - pos < header_bytes then Short_header
  else
    let len = Int32.to_int (String.get_int32_le s pos) in
    let have = lim - pos - header_bytes in
    if len < 0 || len > max_len then Bad_length len
    else if have < len then Short_payload { have; want = len }
    else
      let crc = Int32.to_int (String.get_int32_le s (pos + 4)) in
      let off = pos + header_bytes in
      if crc_sub s off len = crc land 0xFFFFFFFF then Record { off; len }
      else Bad_crc { len }

module Reader = struct
  (* Pending bytes are [src.[pos .. lim-1]] followed by [more]. [src]
     is a string fed while nothing was pending, or a join of an earlier
     tail and [more]. Bytes wait in [more] until they can finish the
     head record, so a stream fed a byte at a time is joined at most
     twice per record. *)
  type t = {
    r_max_len : int;
    mutable src : string;
    mutable pos : int;
    mutable lim : int;
    more : Buffer.t;
  }

  let create ?(max_len = max_len) () =
    { r_max_len = max_len; src = ""; pos = 0; lim = 0; more = Buffer.create 0 }

  let buffered r = r.lim - r.pos + Buffer.length r.more

  let feed r ?(off = 0) ?len s =
    let len = match len with Some l -> l | None -> String.length s - off in
    if len < 0 || off < 0 || off + len > String.length s then
      invalid_arg "Record.Reader.feed";
    if buffered r > 0 then Buffer.add_substring r.more s off len
    else begin
      r.src <- s;
      r.pos <- off;
      r.lim <- off + len
    end

  (* [more] is joined to [src] only once the pending bytes reach [n],
     the size known so far of the head record. *)
  let joinable r n = Buffer.length r.more > 0 && buffered r >= n

  let join r =
    r.src <- String.sub r.src r.pos (r.lim - r.pos) ^ Buffer.contents r.more;
    Buffer.clear r.more;
    r.pos <- 0;
    r.lim <- String.length r.src

  let rec next r =
    let p = parse ~max_len:r.r_max_len r.src ~pos:r.pos ~lim:r.lim in
    match p with
    | Record { len; _ } | Bad_crc { len } ->
        r.pos <- r.pos + header_bytes + len;
        (r.src, p)
    | Short_header when joinable r header_bytes ->
        join r;
        next r
    | Short_payload { want; _ } when joinable r (header_bytes + want) ->
        join r;
        next r
    | Short_header | Short_payload _ | Bad_length _ -> (r.src, p)
end
