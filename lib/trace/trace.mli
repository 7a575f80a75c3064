(** A complete execution trace: type layouts plus the ordered event stream.

    The simulator produces a [t] through a {!sink}; the post-processing
    pipeline ({!Lockdoc_db.Import}) consumes it. Traces can be saved to and
    loaded from a plain-text file so runs can be archived and re-analysed
    (the paper stresses this advantage of ex-post analysis, Sec. 3.3). *)

type t = { layouts : Layout.t list; events : Event.t array }

type sink
(** An append-only event collector (a growable array). *)

val sink : unit -> sink
val emit : sink -> Event.t -> unit
val emitted : sink -> int
(** Number of events collected so far. *)

val finish : layouts:Layout.t list -> sink -> t

val save : string -> t -> unit
(** Write to a file; one line per layout/event, streamed through one
    buffer (no whole-trace line list). *)

type mode =
  | Strict  (** raise {!Invalid} on the first anomalous line *)
  | Lenient  (** skip anomalous lines, collecting a {!Diag.t} for each *)

exception Invalid of Diag.t
(** Raised by strict-mode reads; carries file, line number and anomaly
    classification. *)

val read_lines : ?mode:mode -> ?file:string -> string list -> t * Diag.t list
(** Validating reader (default [Strict]). Per-line anomalies — unknown
    tags, truncated records, malformed fields, duplicate layouts — are
    classified recoverable vs fatal; in [Lenient] mode the offending line
    is skipped and reading continues. Blank lines are skipped but
    counted in line numbers. Each event line is first offered to
    {!Event.scan}; a line it declines is split on tabs, checked against
    {!Event.arity_of_tag} and parsed by {!Event.of_line}. [?file] is only
    used to locate diagnostics. *)

val read : ?mode:mode -> string -> t * Diag.t list
(** [read path] is {!read_lines} over the lines of [path] (split on
    ['\n'], a final newline not starting another line), without building
    them: the file is read into one string and each line is scanned
    where it sits ({!Event.scan}, with one intern table per read). Lines
    the scanner declines, and layout rows, take the reference path that
    {!read_lines} documents, the only producer of diagnostics. Raises
    [Sys_error] if the file cannot be read. *)

val read_string : ?mode:mode -> ?file:string -> string -> t * Diag.t list
(** {!read} over a file's contents already in memory; [file] names it
    in diagnostics. *)

val rows : string -> string list
(** The rows a text trace's contents stream as ({!to_lines}' shape):
    its non-blank lines as they are, layout rows first, each group in
    file order. For contents a {!Strict} read accepts, they parse to
    the layouts and events of that read. *)

val of_lines : string list -> t
(** Strict parse; raises [Failure] with the offending line number. *)

val to_lines : t -> string list

val count : t -> (Event.t -> bool) -> int
(** Number of events satisfying a predicate. *)
