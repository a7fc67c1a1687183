(** The S-ontology induced by an OBDA specification (Definition 4.4).

    For a DL-LiteR TBox with GAV mappings, the certain extension of a basic
    concept [C] w.r.t. an instance [I],

    {v ext_OB(C, I) = ∩ { I(C) | I a solution for I w.r.t. B } v}

    is computed in polynomial time (Theorem 4.1(2)): a constant [c] belongs
    to it iff some assertion retrieved by the mappings places [c] in a basic
    concept [B0] with [T ⊨ B0 ⊑ C] — i.e. membership is derived from the
    retrieved ABox by forward-chaining the positive closure. (Existentially
    generated anonymous witnesses never surface as named constants, so this
    is complete for GAV + DL-LiteR.) *)

open Whynot_relational
open Whynot_dllite

type t
(** An induced ontology, prepared for one fixed instance: the saturated TBox
    together with the assertions retrieved from that instance. *)

val prepare : Spec.t -> Instance.t -> t

val spec : t -> Spec.t

val retrieved : t -> Interp.t
(** The raw retrieved assertions (before TBox saturation). *)

val instance : t -> Instance.t
(** The database instance this ontology was prepared against. *)

val concepts : t -> Dl.basic list
(** [C_OB]: the basic concept expressions occurring in the TBox. *)

val subsumes : t -> Dl.basic -> Dl.basic -> bool
(** [⊑_OB]: subsumption relative to the TBox. *)

val extension : t -> Dl.basic -> Value_set.t
(** [ext_OB(C, I)] for the prepared instance (cached). *)

val base_concepts_of : t -> Value.t -> Dl.basic list
(** The basic concepts directly asserted for a constant by the retrieved
    assertions (before closure): [A] for retrieved [A(c)], [∃P] for
    retrieved [P(c, d)], [∃P⁻] for retrieved [P(d, c)]. *)

val consistent : t -> (unit, string) result
(** Whether the retrieved assertions are consistent with the TBox: no
    constant is forced into two disjoint basic concepts, no retrieved role
    edge lies in two disjoint roles, and nothing is asserted into an
    unsatisfiable concept. When inconsistent, no solution exists and certain
    extensions are not meaningful; {!extension} still returns the
    positive-closure answer. *)
