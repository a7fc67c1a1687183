(** GAV mapping assertions (Definition 4.2): first-order sentences

    {v forall x. phi_1(x_1), ..., phi_n(x_n) -> psi(x) v}

    where the [phi_i] are atoms over the relational schema [S] (comparisons
    to constants are also allowed, as mapping bodies are conjunctive
    queries) and [psi] is an atomic assertion [A(x_i)] over an atomic
    concept or [P(x_i, x_j)] over an atomic role. *)

open Whynot_relational

type head =
  | Concept_of of string * string
    (** [Concept_of (a, x)]: head [A(x)] for atomic concept [a] *)
  | Role_of of string * string * string
    (** [Role_of (p, x, y)]: head [P(x, y)] for atomic role [p] *)

type t = {
  body_atoms : Cq.atom list;
  body_comparisons : Cq.comparison list;
  head : head;
}

val make :
  ?comparisons:Cq.comparison list -> head:head -> Cq.atom list -> t

val is_safe : t -> bool
(** Every head variable occurs in a body atom. *)

val retrieve : t -> Instance.t -> Whynot_dllite.Interp.t -> Whynot_dllite.Interp.t
(** Add to the interpretation all assertions this mapping retrieves from the
    instance. *)

val pp : Format.formatter -> t -> unit
