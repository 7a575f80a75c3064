(** The online derivator: continuously maintained locking rules.

    Wraps the incremental {!Lockdoc_db.Import.engine} and, as each
    event lands, absorbs any new access row into a
    {!Lockdoc_core.Dataset} — the same fold [Dataset.of_store] runs
    over a finished store, so the groups' lock-combination multisets
    match a batch import of the same event prefix at every point.

    {!freeze} re-scores, with [Derivator.derive_group], every group
    whose multiset changed since the last freeze, and reuses the
    memoized rule of every other group — producing
    {!Lockdoc_core.Derivator.mined} values byte-identical to
    [Derivator.derive_all] run on a batch import of the same event
    prefix. Feeding can continue after a freeze. See DESIGN.md 5i. *)

type t

val create : Lockdoc_trace.Layout.t list -> t
(** Fresh derivator over [layouts]. The wrapped engine imports with
    {!Lockdoc_db.Import.engine}'s defaults: the default filter,
    [Inherit] and [Strict]. *)

val feed : t -> Lockdoc_trace.Event.t -> unit
(** Feed one event through the import engine and absorb any access row
    it produced into the dataset. May raise
    {!Lockdoc_trace.Trace.Invalid}, like the engine in [Strict]
    mode. *)

val position : t -> int
(** Events consumed so far (the import engine's position). *)

val engine : t -> Lockdoc_db.Import.engine
val store : t -> Lockdoc_db.Store.t
val stats : t -> Lockdoc_db.Import.stats

val finalize : t -> Lockdoc_db.Import.stats
(** Run the engine's end-of-trace pass. Call at most once; only needed
    when the import stats (unclosed transactions) matter — rules and
    violations do not depend on it. *)

val dataset : t -> Lockdoc_core.Dataset.t
(** The live dataset the online derivator absorbs into — first-access
    order per type key, exactly as [Dataset.of_store] would produce.
    Not a copy: feeding more events changes it, so read it (e.g. with
    {!Lockdoc_core.Violation.find}) before feeding on. *)

val freeze :
  ?strategy:Lockdoc_core.Selection.strategy ->
  ?tac:float ->
  t ->
  Lockdoc_core.Dataset.t * Lockdoc_core.Derivator.mined list
(** Current rules, plus the live dataset ({!dataset}) they were
    derived from. Byte-identical (via
    {!Lockdoc_core.Report.mined_to_json}) to
    [Derivator.derive_all ?strategy ?tac] on a batch import of the
    same prefix.

    Freezing is incremental: each group memoizes its last rule for the
    [(strategy, tac)] it was scored with and the group's
    {!Lockdoc_core.Dataset.stamp} at the time. With the parameters of
    the previous freeze, only the groups {!Lockdoc_core.Dataset.take_dirty}
    names are visited, and of those only the ones whose stamp moved are
    re-scored (counted by the [stream.online.rescored] metric); other
    parameters check every group's memo. *)

val freeze_json :
  ?strategy:Lockdoc_core.Selection.strategy ->
  ?tac:float ->
  t ->
  Lockdoc_core.Dataset.t * (Lockdoc_core.Derivator.mined * string) list
(** {!freeze}, with each rule paired with its memoized
    {!Lockdoc_core.Report.mined_rule_to_json} object: joining the
    objects with commas inside brackets gives
    [Report.mined_to_json] of the rule list, byte for byte. *)

val freeze_report :
  ?strategy:Lockdoc_core.Selection.strategy ->
  ?tac:float ->
  t ->
  (Lockdoc_core.Derivator.mined * string) list
  * (Lockdoc_core.Violation.violation list * string) list
(** {!freeze_json}'s rules, and their violations: one entry per rule
    with at least one violation, in rule order, holding that group's
    violations and their {!Lockdoc_core.Report.add_violation} objects
    joined by commas. Concatenated, the lists are
    [Violation.find dataset rules]; joined with commas inside brackets,
    the strings are [Report.violations_to_json] of it, byte for byte.

    Each group memoizes its list and string for its
    {!Lockdoc_core.Dataset.touched} counter and the winning rule; the
    groups that miss are recomputed by one
    {!Lockdoc_core.Violation.scan}. Adds to the violation metrics what
    [Violation.find] would ({!Lockdoc_core.Violation.note}). *)
