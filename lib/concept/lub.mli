(** Least upper bounds of constant sets in [L_S], w.r.t. a fixed instance.

    [lub I X] (Lemma 5.1) is the smallest selection-free [L_S] concept whose
    extension over [I] contains every constant of [X]: the conjunction of
    all atomic selection-free concepts [pi_A(R)] whose column contains [X]
    (plus the nominal when [X] is a singleton). Polynomial time.

    [lub_sigma I X] (Lemma 5.2) is the analogue for full [L_S]: selections
    are allowed. We enumerate canonical selections per relation — one
    interval per attribute, with endpoints among the values of witness
    tuples — which realises every achievable extension on [I]; the result
    is the conjunction of the subset-minimal valid atomic concepts, which is
    equivalent over [I] to the conjunction of all valid ones. Exponential in
    the arity (polynomial for bounded schema arity), matching the lemma. *)

open Whynot_relational

val lub : Subsume_memo.inst -> Value_set.t -> Ls.t
(** Selection-free least upper bound over the handle's instance, memoised
    in the handle. @raise Invalid_argument on empty [X]. *)

val lub_sigma : ?prune:bool -> Subsume_memo.inst -> Value_set.t -> Ls.t
(** Least upper bound with selections. @raise Invalid_argument on empty
    [X]. *)

val atomic_selection_candidates :
  ?prune:bool ->
  Subsume_memo.inst -> rel:string -> attr:int -> Value_set.t -> Ls.conjunct list
(** The subset-minimal valid atomic concepts [pi_attr(sigma(rel))] whose
    extension contains [X] (exposed for tests and benchmarks). *)
