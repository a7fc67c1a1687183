(** Indexed read-only view of an {!Instance} — the storage half of the
    query-evaluation kernel (the planning half is {!Cq.Plan}).

    A handle materialises each relation as a tuple array once and then
    builds, lazily and cached for the lifetime of the handle, two kinds of
    index:

    - {e pattern indexes}: the relation's tuples grouped by their
      projection onto a list of bound columns — what a compiled join step
      probes with the values of its already-bound variables and constants;
    - {e per-column value indexes}: a hash table from value to tuples plus
      a sorted array of distinct values — what selections ([attr op const],
      including range operators) and {!Whynot_concept.Semantics.conjunct_ext}
      resolve against without scanning the relation.

    {b Lifecycle and invalidation.} Handles are interned per {e physical}
    instance value ({!of_instance}), mirroring the memo handles of the
    concept layer: instances are immutable, so data can only "change" by
    constructing a new physical instance, which simply maps to a fresh
    handle with no indexes — stale indexes are unrepresentable. The
    registry is capped; past the cap it is flushed wholesale (live handles
    keep working, they just stop being shared).

    Handles are safe to share across domains: lazy index building happens
    under a per-handle mutex, and a published index is never mutated. *)

type t

val of_instance : Instance.t -> t
(** The (registry-cached) handle for this physical instance value. *)

val instance : t -> Instance.t

val clear : unit -> unit
(** Flush the handle registry (for cold-start measurements). *)

val arity : t -> string -> int option
(** Arity of the named relation, [None] when absent. *)

val cardinal : t -> string -> int
(** Tuple count of the named relation, [0] when absent. *)

val tuples : t -> string -> Tuple.t array
(** The named relation's tuples (empty when absent). The returned array is
    owned by the handle — callers must not mutate it. Counted as a scan by
    the [eval.tuples.scanned] observability counter. *)

val probe : t -> rel:string -> cols:int list -> Value.t list -> Tuple.t list
(** [probe h ~rel ~cols key]: the tuples of [rel] whose projection onto the
    1-based columns [cols] equals [key] (element-aligned with [cols]).
    Builds and caches the pattern index for [cols] on first use.
    @raise Invalid_argument when a column exceeds the relation's arity and
    the relation is non-empty (mirrors the full-scan behaviour). *)

val column_values : t -> rel:string -> attr:int -> Value_set.t
(** Distinct values of the column — an indexed [Relation.column]. *)

val matching : t -> rel:string -> (int * Cmp_op.t * Value.t) list -> Tuple.t list
(** Tuples satisfying every [attr op const] condition — an indexed
    [Relation.select]. The first condition is answered from the column
    index ([Eq] by hash, range operators by binary search over the sorted
    distinct values); remaining conditions filter the matches. *)

val select_column :
  t -> rel:string -> attr:int -> sels:(int * Cmp_op.t * Value.t) list ->
  Value_set.t
(** [select_column h ~rel ~attr ~sels]: the distinct values of [attr] among
    the tuples satisfying [sels] — the kernel of
    [Semantics.conjunct_ext] ([pi_attr(sigma_sels(rel))]). *)
