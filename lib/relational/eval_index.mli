(** Indexed read-only view of an {!Instance} — the storage half of the
    query-evaluation kernel (the planning half is {!Cq.Plan}).

    A handle reads each relation's own tuple array ({!Relation.tuples})
    the first time the relation is touched and then builds, lazily and cached for the
    lifetime of the handle, two kinds of index:

    - {e pattern indexes}: the relation's tuples grouped by their
      projection onto a list of bound columns — what a compiled join step
      probes with the values of its already-bound variables and constants;
    - {e per-column value indexes}: a hash table from value to tuples plus
      a sorted array of distinct values — what selections ([attr op const],
      including range operators) and {!Whynot_concept.Semantics.conjunct_ext}
      resolve against without scanning the relation.

    {b Lifecycle and invalidation.} A handle is a plain value owned by
    whoever creates it, like the memo handles of the concept layer: there
    is no registry behind {!of_instance}, so a handle and its indexes live
    exactly as long as their owner and keep nothing else alive. Owners
    that evaluate many queries against one instance (an engine, a
    search loop) take one handle and pass it down; a handle-less call such
    as [Cq.eval] makes one per call. Instances are immutable, so data can
    only "change" by constructing a new instance, which gets a new handle
    from its owner — stale indexes are unrepresentable.

    Handles are safe to share across domains: lazy index building happens
    under a per-handle mutex, and a published index is never mutated. *)

type t

val of_instance : Instance.t -> t
(** A fresh handle for this instance, owned by the caller (counted by
    [eval.index.handles]). Creating it does no work: each relation's tuple
    array and indexes are built on first use. *)

val instance : t -> Instance.t

val cardinal : t -> string -> int
(** Tuple count of the named relation, [0] when absent. *)

val tuples : t -> string -> Tuple.t array
(** The named relation's tuples (empty when absent): the relation's own
    array, which callers must not mutate. A caller that walks it counts
    the walk through {!count}. *)

type pattern
(** A pattern index: the tuples of one relation grouped by their
    projection onto a fixed list of columns. Once built it is never
    changed, so lookups take no lock. *)

val pattern : t -> rel:string -> cols:int list -> pattern option
(** The pattern index of [rel] on the 1-based columns [cols] (ascending,
    non-empty), built and cached on first use; [None] when [rel] is
    absent. A join step resolves its pattern once per evaluation and
    then looks keys up in it.
    @raise Invalid_argument when a column exceeds the relation's arity and
    the relation is non-empty (mirrors the full-scan behaviour). *)

val lookup : pattern -> Value.t array -> Tuple.t array
(** [lookup p key]: the tuples whose projection equals [key]
    (element-aligned with the pattern's columns), in ascending order.
    Allocates nothing; the array is shared and must not be mutated. *)

val count : probes:int -> scanned:int -> unit
(** Add to the [eval.index.probes] and [eval.tuples.scanned] counters: a
    join counts its {!lookup}s and the {!tuples} it walks and reports
    them once. *)

val column_values : t -> rel:string -> attr:int -> Value_set.t
(** Distinct values of the column — an indexed [Relation.column]. *)

val matching : t -> rel:string -> (int * Cmp_op.t * Value.t) list -> Tuple.t list
(** Tuples satisfying every [attr op const] condition — an indexed
    [Relation.select]. One attribute is answered from its column index:
    the first [Eq] condition by hash when there is one, otherwise the
    attribute whose range conditions, met into one slice of its sorted
    distinct values (binary search for each bound), keep the fewest
    values. The remaining conditions filter the matches. *)

val select_column :
  t -> rel:string -> attr:int -> sels:(int * Cmp_op.t * Value.t) list ->
  Value_set.t
(** [select_column h ~rel ~attr ~sels]: the distinct values of [attr] among
    the tuples satisfying [sels] — the kernel of
    [Semantics.conjunct_ext] ([pi_attr(sigma_sels(rel))]). *)
