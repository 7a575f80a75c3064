(** The domain count the benchmark harness passes as [~jobs].

    Analysis runs on the calling domain: nothing in the library spawns a
    domain, and the [?jobs] parameters that [lockbench/] still passes
    are ignored. This value is kept only because the harness compiles
    against it. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()], clamped to [[1, 64]]. *)
