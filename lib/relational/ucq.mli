(** Unions of conjunctive queries (with comparisons to constants). *)

type t = {
  arity : int;
  disjuncts : Cq.t list;
}

val make : Cq.t list -> t
(** @raise Invalid_argument on empty list or mixed arities. *)

val of_cq : Cq.t -> t

val arity : t -> int

val eval : t -> Instance.t -> Relation.t
(** The union of the disjuncts' answers, over one index handle owned by
    the call. *)

val eval_in : Eval_index.t -> t -> Relation.t
(** {!eval} over the caller's handle: every disjunct's answers go into
    one {!Relation.builder}, and the relation is built once. *)

val holds : t -> Instance.t -> bool

val constants : t -> Value_set.t

val rename_apart : suffix:string -> t -> t

val atoms_relations : t -> string list
(** Names of relations mentioned in any disjunct (deduplicated). *)

val pp : Format.formatter -> t -> unit
