(** Conjunctive queries with comparisons to constants (§2).

    A CQ is [exists y. phi(x, y)] where [phi] is a conjunction of relational
    atoms plus comparisons of the form [v op c] with [op] in
    [{=, <, >, <=, >=}] and [c] a constant. Comparisons between variables are
    not allowed, following the paper. Answers are computed under the usual
    active-domain/safe semantics: every head variable and every compared
    variable must occur in some relational atom. *)

type term =
  | Var of string
  | Const of Value.t

type atom = {
  rel : string;
  args : term list;
}

type comparison = {
  subject : string;  (** the compared variable *)
  op : Cmp_op.t;
  value : Value.t;
}

type t = {
  head : term list;       (** answer tuple; constants allowed *)
  atoms : atom list;
  comparisons : comparison list;
}

val make :
  head:term list -> atoms:atom list -> ?comparisons:comparison list -> unit -> t

val arity : t -> int

val vars : t -> string list
(** All variables, in first-occurrence order (head, then atoms, then
    comparisons). *)

val body_vars : t -> string list
(** Variables occurring in relational atoms. *)

val is_safe : t -> bool
(** Head variables and compared variables all occur in relational atoms. *)

val constants : t -> Value_set.t
(** Constants occurring anywhere in the query. *)

val rename_apart : suffix:string -> t -> t
(** Append [suffix] to every variable name (standardising apart). *)

val substitute : (string * term) list -> t -> t
(** Replace variables by terms throughout (head, atoms). Comparisons on a
    variable substituted by a constant are evaluated away; if one fails the
    resulting query is unsatisfiable, represented by a comparison both
    [< c] and [> c] on a dummy variable — use {!is_unsatisfiable_syntactic}
    or evaluation to detect. Substituting a compared variable by another
    variable transfers the comparison. *)

val var_interval : t -> string -> Interval.t
(** The interval implied by the query's comparisons on the given variable
    ({!Interval.top} when unconstrained). *)

val is_unsatisfiable_syntactic : t -> bool
(** True when some variable's comparisons are jointly unsatisfiable or a head
    constant... (conservative check: only comparisons are inspected). *)

(** Compiled evaluation plans — the planning half of the query-evaluation
    kernel (the storage half is {!Eval_index}).

    A plan fixes a greedy join order over the query's atoms — at each step
    the atom with the most already-bound positions (constants included),
    ties broken towards the smaller relation, then towards textual order —
    compiles variables to integer slots so a binding is one mutable
    [Value.t array], probes {!Eval_index} pattern indexes with the bound
    positions of each atom, and checks each comparison at the first step
    that binds its subject. Each step resolves its pattern index once per
    evaluation; a probe then fills a key array in place and looks it up
    without a lock or an allocation. Plans are not cached: every call
    compiles one, and a caller that wants to reuse indexes across queries
    passes one {!Eval_index.t} to every call. *)
module Plan : sig
  type plan

  val of_query : Eval_index.t -> t -> plan
  (** Compile the plan for [t] over this indexed instance (counted by
      [eval.plans.built]). *)

  val emit : Eval_index.t -> t -> Relation.builder -> unit
  (** Push every answer into the builder, duplicates and all: a UCQ
      collects its disjuncts' answers in one builder. *)

  val eval : Eval_index.t -> t -> Relation.t
  (** The answers, collected by {!emit} and built once. *)

  val holds : Eval_index.t -> t -> bool
  (** Short-circuits on the first witness binding. *)

  val eval_assignments : Eval_index.t -> t -> (string * Value.t) list list

  val pp : Format.formatter -> plan -> unit
  (** Step order with probe columns vs. scans and pushed-down
      comparisons. *)
end

val eval : t -> Instance.t -> Relation.t
(** All answers over the instance (set semantics). A Boolean query (empty
    head) evaluates to the arity-0 relation containing the empty tuple iff
    the query holds. Evaluates via {!Plan} over a fresh
    {!Eval_index.of_instance} handle owned by the call; to share indexes
    across calls, take one handle and use {!Plan.eval}. *)

val holds : t -> Instance.t -> bool
(** [holds q inst]: the Boolean version — is [eval] non-empty? Unlike
    [eval], stops at the first satisfying binding. *)

val eval_assignments : t -> Instance.t -> (string * Value.t) list list
(** Satisfying assignments restricted to {!vars} (used by GAV mappings). *)

val freeze : fresh:(string -> Value.t) -> t -> Instance.t * Tuple.t
(** Canonical instance: replace each variable [v] by [fresh v] and return the
    resulting facts plus the frozen head tuple. Ignores comparisons — callers
    that need comparison-aware canonical instances should use
    {!Containment}. *)

val pp : Format.formatter -> t -> unit
val pp_term : Format.formatter -> term -> unit
