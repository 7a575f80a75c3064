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

val create :
  ?filter:Lockdoc_db.Filter.t ->
  ?irq_mode:Lockdoc_db.Import.irq_mode ->
  ?mode:Lockdoc_db.Import.mode ->
  Lockdoc_trace.Layout.t list ->
  t

val feed : t -> Lockdoc_trace.Event.t -> unit
(** Feed one event through the import engine and absorb any access row
    it produced into the dataset. May raise
    {!Lockdoc_trace.Trace.Invalid} in [Strict] mode, like the
    engine. *)

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
    {!Lockdoc_core.Dataset.stamp} at the time; only groups whose stamp
    moved since then are re-scored (counted by the
    [stream.online.rescored] metric). *)

val freeze_json :
  ?strategy:Lockdoc_core.Selection.strategy ->
  ?tac:float ->
  t ->
  Lockdoc_core.Dataset.t * (Lockdoc_core.Derivator.mined * string) list
(** {!freeze}, with each rule paired with its memoized
    {!Lockdoc_core.Report.mined_rule_to_json} object: joining the
    objects with commas inside brackets gives
    [Report.mined_to_json] of the rule list, byte for byte. *)
