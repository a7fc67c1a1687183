(** Least upper bounds of constant sets in [L_S], w.r.t. a fixed instance.

    [lub I X] (Lemma 5.1) is the smallest selection-free [L_S] concept whose
    extension over [I] contains every constant of [X]: the conjunction of
    all atomic selection-free concepts [pi_A(R)] whose column contains [X]
    (plus the nominal when [X] is a singleton). Polynomial time.

    [lub_sigma I X] (Lemma 5.2) is the analogue for full [L_S]: selections
    are allowed. A selection keeping [X] in [pi_A(sigma(R))] keeps one
    witness tuple ([t.A = x]) per [x] of [X], hence their bounding box
    (per attribute, the closed interval between the least and the
    greatest witness value). Position by position, the boxes are grown
    one constant at a time and only those containing no other box are
    kept; each is rendered as closed-interval selections, and the
    conjuncts with subset-minimal extensions (one per extension) are met.
    That meet is equivalent over [I] to the meet of every valid atomic
    concept. There are at most [|adom|^(2 * arity)] distinct boxes per
    position, which is Theorem 5.4's bound: polynomial for bounded schema
    arity. *)

open Whynot_relational

val lub : Subsume_memo.inst -> Value_set.t -> Ls.t
(** Selection-free least upper bound over the handle's instance:
    [render ?nominal (mask X)] ([nominal] when [X] is a singleton). Costs [|X|] mask intersections
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

val projection_mask : Subsume_memo.inst -> Ls.t -> Bits.t option
(** [Some m] when the concept is a meet of one or more selection-free
    projections, each on a position of the instance: its extension is
    then the constants whose position mask contains [m] ({!covers}),
    with no extension to fetch. [None] for any other concept. *)

val covers : Subsume_memo.inst -> Bits.t -> int -> bool
(** [covers h m i] iff the [i]-th constant of
    {!Subsume_memo.adom_array} is in the extension of the meet of [m]'s
    projections: [m] is empty ([top]) or that constant's position mask
    contains [m], one mask inclusion. An index outside the array stands
    for a constant outside the active domain, which only [top]
    covers. *)

val inter_covers : Bits.t array -> Bits.t -> Bits.t -> int -> bool
(** [inter_covers (Subsume_memo.posmasks h) m b i] iff
    [covers h (Bits.inter m b) i], a word at a time and without building
    the intersection: an absorb attempt's test on [m ∧ posmask(b)]. *)

val render : Subsume_memo.inst -> ?nominal:Value.t -> Bits.t -> Ls.t
(** The concept: the nominal [{x}] if given, meet the projections of the
    mask. *)

val shorten : Subsume_memo.inst -> ?nominal:Value.t -> Bits.t -> Ls.t
(** {!Irredundant.minimise} of [render ?nominal m], computed on the mask:
    a bit is dropped iff the number of active-domain constants covering
    the mask stays the same. [nominal] must lie in the extension of [m].
    Costs [|adom|] mask inclusions per bit. *)

val lub_sigma : Subsume_memo.inst -> Value_set.t -> Ls.t
(** Least upper bound with selections: the nominal when [X] is a
    singleton, meet every position's {!atomic_selection_candidates}.
    Memoised in the handle ({!Subsume_memo.memo_lub}, the only lubs
    counted as [memo.lub.*]). @raise Invalid_argument on empty [X]. *)

val atomic_selection_candidates :
  Subsume_memo.inst -> rel:string -> attr:int -> Value_set.t -> Ls.conjunct list
(** The atomic concepts [pi_attr(sigma(rel))] containing [X] with
    subset-minimal extensions, one per extension: the least (in
    [Stdlib.compare] order) of the witness boxes selecting it. Fetches
    each constant's witnesses from the handle's index, checking the
    handle's deadline once per constant. Exposed for tests and
    benchmarks.
    @raise Subsume_memo.Deadline_exceeded once the deadline has passed. *)
