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
(** Selection-free least upper bound over the handle's instance: the
    handle's {!Subsume_memo.canonical} value of [render ?nominal (mask X)]
    ([nominal] when [X] is a singleton). Costs [|X|] mask intersections
    and one rendering; it is not memoised and does not count as
    [memo.lub.*]. @raise Invalid_argument on empty [X]. *)

(** {1 Selection-free lubs as position masks}

    A mask is a set of positions, bit [k] standing for the projection on
    [(Subsume_memo.positions h).(k)]. Lemma 5.1 makes the lub of
    [X] (for [|X| >= 2]) the meet of the projections in [mask X]: growing
    [X] by [b] intersects the mask with [b]'s position mask, and [v] lies
    in the lub's extension iff its position mask contains the lub's mask.
    The empty mask is [top]. Algorithm 2 and CHECK-MGE search over masks
    and turn only their results into concepts. *)

val mask : Subsume_memo.inst -> Value_set.t -> Bits.t
(** [mask h X]: the positions whose column holds every constant of [X];
    empty when [X] has a constant outside the active domain. *)

val covers : Subsume_memo.inst -> Bits.t -> Value.t -> bool
(** [covers h m v] iff [v] is in the extension of the meet of [m]'s
    projections: [m] is empty ([top]) or [v]'s position mask contains
    [m]: a hash lookup and a mask inclusion. *)

val render : Subsume_memo.inst -> ?nominal:Value.t -> Bits.t -> Ls.t
(** The concept: the nominal [{x}] if given, meet the projections of the
    mask. *)

val shorten : Subsume_memo.inst -> ?nominal:Value.t -> Bits.t -> Ls.t
(** {!Irredundant.minimise} of [render ?nominal m], computed on the mask:
    a bit is dropped iff the number of active-domain constants covering
    the mask stays the same. [nominal] must lie in the extension of [m].
    Costs [|adom|] mask inclusions per bit. *)

val lub_sigma : ?prune:bool -> Subsume_memo.inst -> Value_set.t -> Ls.t
(** Least upper bound with selections, memoised in the handle
    ({!Subsume_memo.memo_lub}, the only lubs counted as [memo.lub.*]).
    @raise Invalid_argument on empty [X]. *)

val atomic_selection_candidates :
  ?prune:bool ->
  Subsume_memo.inst -> rel:string -> attr:int -> Value_set.t -> Ls.conjunct list
(** The subset-minimal valid atomic concepts [pi_attr(sigma(rel))] whose
    extension contains [X] (exposed for tests and benchmarks). *)
