(* Wire messages. One frame = one message; the payload is a
   tab-separated head line, optionally followed by newline-separated
   data rows (trace lines never contain raw newlines: identifier fields
   are Fieldenc-escaped, which is what makes this framing sound).

   Row frames carry the absolute index of their first row so the
   stream survives lossy transports: a gap nacks with the expected
   index, an overlap (a retransmission after a reconnect) is
   deduplicated idempotently. *)

module Fieldenc = Lockdoc_trace.Fieldenc

let version = 2

type query = Status | Metrics | Stream_rules

type client_msg =
  | Hello of { version : int; session : string }
  | Rows of { start : int; lines : string list }
  | Seal of { rows : int }
  | Query of query
  | Subscribe
  | Ping
  | Bye
  | Shutdown

type server_msg =
  | Welcome of { resume : int }
  | Nack of { expected : int }
  | Retry_after of { ms : int; reason : string }
  | Err of { code : string; reason : string }
  | Pong
  | Sealed of { events : int; rules : string; violations : string }
  | Info of { json : string }
  | Closing of { reason : string }

let query_to_string = function
  | Status -> "status"
  | Metrics -> "metrics"
  | Stream_rules -> "stream"

let query_of_string = function
  | "status" -> Some Status
  | "metrics" -> Some Metrics
  | "stream" -> Some Stream_rules
  | _ -> None

(* ---- Encoding ----------------------------------------------------- *)

let tab = String.concat "\t"

let client_to_payload = function
  | Hello { version; session } ->
      tab [ "hello"; string_of_int version; Fieldenc.encode session ]
  | Rows { start; lines } ->
      String.concat "\n"
        (tab [ "rows"; string_of_int start; string_of_int (List.length lines) ]
        :: lines)
  | Seal { rows } -> tab [ "seal"; string_of_int rows ]
  | Query q -> tab [ "query"; query_to_string q ]
  | Subscribe -> "subscribe"
  | Ping -> "ping"
  | Bye -> "bye"
  | Shutdown -> "shutdown"

let server_to_payload = function
  | Welcome { resume } -> tab [ "welcome"; string_of_int resume ]
  | Nack { expected } -> tab [ "nack"; string_of_int expected ]
  | Retry_after { ms; reason } ->
      tab [ "retry-after"; string_of_int ms; Fieldenc.encode reason ]
  | Err { code; reason } -> tab [ "err"; code; Fieldenc.encode reason ]
  | Pong -> "pong"
  | Sealed { events; rules; violations } ->
      tab
        [
          "sealed"; string_of_int events; Fieldenc.encode rules;
          Fieldenc.encode violations;
        ]
  | Info { json } -> tab [ "info"; Fieldenc.encode json ]
  | Closing { reason } -> tab [ "closing"; Fieldenc.encode reason ]

(* ---- Decoding ----------------------------------------------------- *)

let head_and_rows payload =
  match String.index_opt payload '\n' with
  | None -> (payload, [])
  | Some i ->
      let head = String.sub payload 0 i in
      let rest = String.sub payload (i + 1) (String.length payload - i - 1) in
      (head, String.split_on_char '\n' rest)

let int_field name s =
  match int_of_string_opt s with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "bad %s field %S" name s)

let ( let* ) = Result.bind

let decode_field name s =
  match Fieldenc.decode s with
  | v -> Ok v
  | exception Failure _ -> Error (Printf.sprintf "bad %s escape" name)

let client_of_payload payload =
  let head, rows = head_and_rows payload in
  match (String.split_on_char '\t' head, rows) with
  | [ "hello"; v; session ], [] ->
      let* version = int_field "version" v in
      let* session = decode_field "session" session in
      Ok (Hello { version; session })
  | [ "rows"; start; n ], lines ->
      let* start = int_field "start" start in
      let* n = int_field "count" n in
      if n <> List.length lines then
        Error
          (Printf.sprintf "rows frame announces %d rows, carries %d" n
             (List.length lines))
      else if start < 0 then Error "negative rows start"
      else Ok (Rows { start; lines })
  | [ "seal"; rows ], [] ->
      let* rows = int_field "rows" rows in
      if rows < 0 then Error "negative seal row count" else Ok (Seal { rows })
  | [ "query"; q ], [] -> (
      match query_of_string q with
      | Some q -> Ok (Query q)
      | None -> Error (Printf.sprintf "unknown query %S" q))
  | [ "subscribe" ], [] -> Ok Subscribe
  | [ "ping" ], [] -> Ok Ping
  | [ "bye" ], [] -> Ok Bye
  | [ "shutdown" ], [] -> Ok Shutdown
  | tag :: _, _ -> Error (Printf.sprintf "unknown or malformed message %S" tag)
  | [], _ -> Error "empty message"

let server_of_payload payload =
  let head, rows = head_and_rows payload in
  match (String.split_on_char '\t' head, rows) with
  | [ "welcome"; n ], [] ->
      let* resume = int_field "resume" n in
      Ok (Welcome { resume })
  | [ "nack"; n ], [] ->
      let* expected = int_field "expected" n in
      Ok (Nack { expected })
  | [ "retry-after"; ms; reason ], [] ->
      let* ms = int_field "ms" ms in
      let* reason = decode_field "reason" reason in
      Ok (Retry_after { ms; reason })
  | [ "err"; code; reason ], [] ->
      let* reason = decode_field "reason" reason in
      Ok (Err { code; reason })
  | [ "pong" ], [] -> Ok Pong
  | [ "sealed"; events; rules; violations ], [] ->
      let* events = int_field "events" events in
      let* rules = decode_field "rules" rules in
      let* violations = decode_field "violations" violations in
      Ok (Sealed { events; rules; violations })
  | [ "info"; json ], [] ->
      let* json = decode_field "info" json in
      Ok (Info { json })
  | [ "closing"; reason ], [] ->
      let* reason = decode_field "reason" reason in
      Ok (Closing { reason })
  | tag :: _, _ -> Error (Printf.sprintf "unknown or malformed reply %S" tag)
  | [], _ -> Error "empty reply"
