(** Algorithm 1 (Exhaustive Search) over a domain pool.

    The candidate lattice is explored in three parallel stages — the
    (position, concept) candidate/kill-set grid, the per-first-candidate
    blocks of the candidate product, and the maximality filter — followed
    by a deterministic merge that reproduces the sequential result
    {e exactly}: the block hits are re-concatenated in the order the
    sequential accumulator would have produced, and the equivalence dedup
    (whose surviving representative depends on list order) stays
    sequential. Consequently every function here agrees with its
    [Whynot_core.Exhaustive] counterpart for every pool size, which is
    what differential property #18 checks.

    [ontology ~worker:w] must return an ontology usable from worker slot
    [w]; slot [0] runs on the calling domain. The slots may share
    immutable structure (in particular the concept list, which fixes the
    candidate order) but each must answer [mem]/[subsumes] through
    domain-private mutable state — [Whynot.Engine] gives each slot its own
    memo handle. The callback is invoked at most once per slot, from that
    slot's own domain. *)

open Whynot_core

val all_mges :
  Pool.t ->
  ontology:(worker:int -> 'c Ontology.t) ->
  ?prune:bool ->
  Whynot.t ->
  ('c Explanation.t list, Whynot_error.t) result
(** Same result (same list, same order) as [Exhaustive.all_mges] — or as
    [Exhaustive.all_mges_unpruned] when [prune:false]. *)

val exists_explanation :
  Pool.t ->
  ontology:(worker:int -> 'c Ontology.t) ->
  Whynot.t ->
  (bool, Whynot_error.t) result
(** Same verdict as [Exhaustive.exists_explanation]; first-position blocks
    are searched concurrently with a shared early-exit flag. *)

val one_mge :
  Pool.t ->
  ontology:(worker:int -> 'c Ontology.t) ->
  Whynot.t ->
  ('c Explanation.t option, Whynot_error.t) result
(** Same explanation as [Exhaustive.one_mge]: the lowest-numbered block
    holding any solution holds the sequential witness, and later blocks
    abort as soon as an earlier one reports. *)
