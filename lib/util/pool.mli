(** Domain parallelism for the one coarse unit that pays for it:
    per-family pipelines ({!map}, used by
    [Lockdoc_experiments.Context.families]). Everything else runs on
    the calling domain.

    Work items are distributed over a fixed number of OCaml 5 domains
    through a chunked atomic work queue; results are collected into the
    input order, so for a pure worker function the output is identical
    to the sequential map regardless of the domain count or scheduling.

    Exception semantics match the sequential path: every item is
    attempted, failures are recorded per item, and after all domains
    join the exception of the {e lowest} failing index is re-raised with
    its original backtrace — exactly the exception a plain [List.map]
    would have raised first.

    Workers run concurrently in shared memory: they must not mutate
    shared state. Each per-family worker imports into a store of its
    own. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()], clamped to [[1, 64]]. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** Parallel [List.map], order preserved, evaluated on [jobs] domains
    (the calling domain included). [jobs] defaults to {!default_jobs};
    [jobs <= 1] or fewer than two items runs sequentially on the
    calling domain without spawning. *)
