(** Irredundant concept expressions (Proposition 6.2): a conjunction
    [C = C1 ⊓ ... ⊓ Cn] is irredundant w.r.t. [O_I] if no strict subset of
    its conjuncts is equivalent to [C] over [I]. There is a polynomial-time
    algorithm producing an irredundant equivalent. *)

val minimise : Subsume_memo.inst -> Ls.t -> Ls.t
(** Drop conjuncts greedily while the extension over the handle's
    instance [I] is unchanged, then drop selection conditions inside each
    surviving conjunct the same way (a strengthening beyond Proposition
    6.2's conjunct-level notion). Polynomial time; the result is
    irredundant and [≡_{O_I}] the input. *)

val is_irredundant : Subsume_memo.inst -> Ls.t -> bool
(** Does dropping any single conjunct (or any single selection condition
    inside one) change the extension over [I]? Holds of every
    {!minimise} result. *)
