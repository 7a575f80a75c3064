(** Winning-hypothesis selection (paper Sec. 4.3).

    All hypotheses at or above the acceptance threshold [tac] are assumed
    to be related; the naïve "highest support wins" strategy would let a
    too-weak rule (or "no lock", which trivially has sr = 1) dominate the
    true one. LockDoc therefore picks the hypothesis with the {e lowest}
    relative support within the accepted group; ties go to the hypothesis
    with {e more} locks. "No lock" is always in the group, so a winner
    always exists. *)

type strategy =
  | Lockdoc  (** lowest sr ≥ tac, tie → more locks (the paper's choice) *)
  | Naive  (** highest sr among rules with at least one lock, if it clears
               tac; otherwise "no lock" — the strawman of Sec. 4.3 *)

val select :
  ?strategy:strategy -> tac:float -> Hypothesis.scored list ->
  Hypothesis.scored
(** Pick the winner among scored hypotheses. The list must contain the
    "no lock" rule (as {!Hypothesis.score} guarantees). *)
