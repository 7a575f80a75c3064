(** The locking-rule checker (paper Sec. 5.5 / 7.3): validate the
    officially documented rules against the observed behaviour.

    A documented rule is [correct] when every observation follows it
    (sr = 1), [ambivalent] when only some do (0 < sr < 1), [incorrect]
    when none does (sr = 0), and [unobserved] when the benchmark never
    exercised the member. *)

type verdict = Correct | Ambivalent | Incorrect | Unobserved

type checked = {
  c_type : string;  (** base data type ("inode"), subclasses merged *)
  c_member : string;
  c_kind : Rule.access;
  c_rule : Rule.t;  (** the documented rule under trial *)
  c_support : Hypothesis.support;
  c_verdict : verdict;
}

val verdict_to_string : verdict -> string

val check_rule :
  Dataset.t -> ty:string -> member:string -> kind:Rule.access -> Rule.t ->
  checked
(** Judge one documented rule against all observations of the base type
    (subclasses merged, as source comments do not distinguish them). *)

type spec = {
  sp_type : string;
  sp_member : string;
  sp_kind : Rule.access;
  sp_rule : Rule.t;
}
(** One documented rule to put on trial. *)

val check_many : Dataset.t -> spec list -> checked list
(** {!check_rule} over a whole documented-rule corpus, input order
    preserved. *)

type summary = {
  s_type : string;
  s_rules : int;  (** documented rules (#R) *)
  s_unobserved : int;  (** (#No) *)
  s_observed : int;  (** (#Ob) *)
  s_correct : int;
  s_ambivalent : int;
  s_incorrect : int;
}

val summarise : checked list -> string -> summary
(** Aggregate the checked rules of one data type (paper Tab. 4 row). *)
