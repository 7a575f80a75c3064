let default_jobs () = min 64 (max 1 (Domain.recommended_domain_count ()))
