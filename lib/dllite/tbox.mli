(** DL-LiteR TBoxes: finite sets of inclusion assertions [B ⊑ C] (concept
    axioms) and [R ⊑ E] (role axioms). *)

type axiom =
  | Concept_incl of Dl.basic * Dl.concept
  | Role_incl of Dl.role * Dl.role_expr

type t

val make : axiom list -> t

val axioms : t -> axiom list

val atomic_concepts : t -> string list
(** Atomic concept names occurring in the TBox (sorted). *)

val atomic_roles : t -> string list

val basic_concepts : t -> Dl.basic list
(** All basic concept expressions over the TBox's signature: every atomic
    concept [A], and [exists P], [exists P-] for every atomic role [P].
    This is the concept set [C_OB] of Definition 4.4 when every basic concept
    of the signature occurs in the TBox. *)

val occurring_basic_concepts : t -> Dl.basic list
(** Exactly the basic concept expressions that occur (possibly under
    negation) in some axiom — the paper's "basic concept expressions
    occurring in T". *)

val size : t -> int

val pp : Format.formatter -> t -> unit
