(** Datalog programs with stratified negation.

    The paper's motivating systems (LogiQL, Datomic, Yedalog) specify
    analytics workflows as Datalog programs, and §2 observes that nested
    UCQ-view definitions are exactly {e non-recursive} Datalog. This module
    supplies the full substrate: recursive programs, safety and
    stratification checks, and semi-naive bottom-up evaluation. The
    {!of_views}/{!materialise} pair is drop-in equivalent to
    {!Whynot_relational.View.materialise} on non-recursive inputs (tested),
    and additionally handles recursion (e.g. a genuinely transitive
    [Reachable]) and stratified negation. *)

open Whynot_relational

type literal =
  | Pos of Cq.atom
  | Neg of Cq.atom

type rule = {
  head : Cq.atom;
  body : literal list;
  comparisons : Cq.comparison list;
}

type t
(** A validated program. *)

val rule :
  ?comparisons:Cq.comparison list -> head:Cq.atom -> literal list -> rule

val make : rule list -> (t, string) result
(** Validates:
    - {b safety}: every head variable, negated-literal variable and compared
      variable occurs in a positive body literal;
    - {b stratification}: no recursion through negation. *)

val make_exn : rule list -> t

val rules : t -> rule list

val idb_predicates : t -> string list
(** Predicates defined by some rule head. *)

val strata : t -> string list list
(** The stratification: IDB predicates grouped bottom-up; negation only
    refers to strictly earlier strata. *)

val is_recursive : t -> bool

val eval : t -> Instance.t -> Instance.t
(** Bottom-up semi-naive evaluation, stratum by stratum: the input instance
    supplies the EDB; the result extends it with every IDB relation.
    Existing IDB facts in the input are ignored (recomputed from
    scratch). *)

val of_views : View.t -> t
(** The non-recursive Datalog program equivalent to a collection of nested
    UCQ-view definitions (§2's correspondence). Head constants are
    compiled away through fresh variables and equality comparisons, so the
    result is always safe. *)
