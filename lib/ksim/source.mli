(** Synthetic kernel source map and execution coverage.

    Every simulated kernel function is declared with a file and a line
    span; declaration assigns it a concrete line range within that file.
    During a run the kernel marks entered functions and executed lines,
    from which per-directory line/function coverage is computed exactly
    like GCOV does for the paper's Tab. 3. Functions that are declared
    but never executed count against coverage, so subsystems declare
    their whole surface up front. *)

type fn = private {
  fn_id : int;  (** dense, in declaration order *)
  fn_name : string;
  fn_file : string;
  fn_start : int;  (** first line of the function *)
  fn_span : int;  (** number of source lines *)
}

val declare : file:string -> span:int -> string -> fn
(** [declare ~file ~span name] registers a function and assigns it the next
    free line range in [file]. Re-declaring the same name with the same
    [file] and [span] returns the original record; a re-declaration that
    disagrees on either raises [Invalid_argument] — silently keeping the
    first record would skew every coverage denominator derived from it. *)

val find : string -> fn
(** Raises [Not_found] for undeclared functions. *)

type coverage
(** Per-run execution record: one byte map per function, an "entered"
    flag plus one byte per line of its span, the way GCOV keeps a
    counter array per object file. *)

val coverage : unit -> coverage

val mark_enter : coverage -> fn -> unit
(** Marks [fn] entered. Its first entry in a run also marks the leading
    3/4 of its span (at least one line) as executed; later entries
    change nothing. *)

val mark_line : coverage -> fn -> int -> unit
(** [mark_line cov fn line] records execution of an absolute line inside
    [fn]'s range; a line outside the range wraps into it (modulo the
    span, also below [fn_start]). A no-op for a zero-span function. *)

type dir_report = {
  dir : string;
  lines_total : int;
  lines_covered : int;
  functions_total : int;
  functions_covered : int;
}

val report : coverage -> dirs:string list -> dir_report list
(** Coverage summary for all declared functions whose file lives directly
    in one of [dirs] (e.g. ["fs"] matches ["fs/inode.c"] but not
    ["fs/ext4/inode.c"], as in the paper's Tab. 3). *)
