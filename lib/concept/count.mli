(** Counting concepts in the fragments of [L_S] (Proposition 4.2): over a
    schema [S] and a finite constant set [K], the number of distinct
    concepts (modulo the normal forms below) is

    - polynomial in [|S| + |K|] for [L_S^min],
    - single-exponential for selection-free and for intersection-free
      [L_S[K]],
    - double-exponential for full [L_S[K]].

    The counts are of canonical normal forms: conjunctions are subsets of
    atomic conjuncts (order/duplication irrelevant); multiple distinct
    nominals collapse to one unsatisfiable class; per-attribute selections
    are canonical intervals with endpoints in [K]. They are exact counts of
    those normal forms and exhibit exactly the growth rates of the
    proposition. *)

open Whynot_relational

val count_minimal : Schema.t -> k:int -> int
(** [L_S^min[K]]: top, [k] nominals, and one projection per (relation,
    attribute) position. *)

val count_selection_free : Schema.t -> k:int -> float
(** Selection-free [L_S[K]]: a set of positions, optionally meeting a single
    nominal, plus the unsatisfiable class. Returned as float (the count is
    exponential). *)

val count_full : Schema.t -> k:int -> float
(** Full [L_S[K]]: a set of atomic selection conjuncts, optionally meeting a
    nominal, plus the unsatisfiable class. Double-exponential. *)

val count_full_log10 : Schema.t -> k:int -> float
(** [log10] of {!count_full} — printable even when the count itself
    overflows floating point. *)

val enumerate_selection_free :
  Instance.t -> Value_set.t -> Ls.t list
(** Materialise all selection-free concepts over the positions of an
    instance with nominals from the given set — the finite restriction
    [O_I[K]] used by the exhaustive algorithm in §5.2. Exponential; meant
    for small inputs and tests. *)
