(** Inclusion dependencies [R[A1,...,An] ⊆ S[B1,...,Bn]] (§2). *)

type t = {
  lhs_rel : string;
  lhs_attrs : int list;
  rhs_rel : string;
  rhs_attrs : int list;
}

val make :
  lhs_rel:string -> lhs_attrs:int list ->
  rhs_rel:string -> rhs_attrs:int list -> t
(** @raise Invalid_argument when attribute lists differ in length. *)

val satisfied_in : t -> lhs:Relation.t -> rhs:Relation.t -> bool

val violations : t -> lhs:Relation.t -> rhs:Relation.t -> Tuple.t list
(** Projected LHS tuples missing from the projected RHS. *)

val unary_reachable : t list -> string * int -> (string * int) list
(** Positions reachable (reflexively-transitively) in the positional graph
    underlying the selection-free ⊑_S decider: each IND
    [R[A1..An] ⊆ S[B1..Bn]] contributes edges [(R,Ai) -> (S,Bi)], meaning
    [pi_{Ai}(R) ⊆ pi_{Bi}(S)] holds in every instance satisfying the
    INDs. *)

val pp : Format.formatter -> t -> unit
