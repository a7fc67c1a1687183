(** ABoxes (assertion boxes) for DL-LiteR knowledge bases.

    The paper omits ABoxes "to simplify the presentation" (§4.1) and works
    with assertions retrieved through mappings instead; this module provides
    the standard KB-level interface directly, reusing the same machinery:
    an ABox is a finite set of concept and role assertions, a knowledge
    base pairs it with a TBox, and the two standard reasoning tasks are
    KB consistency and instance checking ([KB ⊨ B(a)]). Both run in
    polynomial time, matching DL-LiteR's data complexity story. *)

open Whynot_relational

type assertion =
  | Concept_assertion of string * Value.t        (** [A(a)] *)
  | Role_assertion of string * Value.t * Value.t (** [P(a, b)] *)

type t
(** An ABox. *)

val of_list : assertion list -> t

val to_interp : t -> Interp.t
(** The minimal interpretation of the asserted facts. *)

val derived_basics : Reasoner.t -> t -> Value.t -> Dl.basic list
(** All basic concepts the KB derives for an individual: asserted ones
    closed under the TBox's positive inclusions. *)

val consistent : Reasoner.t -> t -> (unit, string) result
(** KB consistency: no individual is derived into two disjoint basic
    concepts or into an unsatisfiable one, and no asserted role edge lies
    in two disjoint roles. *)

val entails : Reasoner.t -> t -> Dl.basic -> Value.t -> bool
(** Instance checking [KB ⊨ B(a)]: [true] whenever the KB is inconsistent
    (ex falso), otherwise membership in the certain extension. *)

val certain_extension : Reasoner.t -> t -> Dl.basic -> Value_set.t
(** All individuals [a] with [KB ⊨ B(a)] (for a consistent KB). *)
