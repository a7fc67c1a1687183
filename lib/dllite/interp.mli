(** Finite (ΦC, ΦR)-interpretations, used to test the reasoner: an
    interpretation maps atomic concepts to sets of constants and atomic roles
    to binary relations over constants (Definition 4.1).

    Note these are *finite approximations*: DL-LiteR semantics ranges over
    interpretations with arbitrary (infinite) domains, so a finite search can
    refute an entailment (by exhibiting a finite counter-model) but can never
    verify one. The test-suite uses them for exactly that: every subsumption
    the saturation derives must hold in every randomly generated finite model
    of the TBox (soundness), and saturation completeness is tested separately
    against the canonical-model construction. *)

open Whynot_relational

type t

val empty : t

val add_concept_member : string -> Value.t -> t -> t

val add_role_edge : string -> Value.t -> Value.t -> t -> t

val concept_ext : t -> Dl.basic -> Value_set.t
(** Extension of a basic concept: [Atom A] is looked up; [Exists P] is the
    first projection of [P]; [Exists P-] the second. *)

val role_ext : t -> Dl.role -> (Value.t * Value.t) list

val satisfies : t -> Tbox.t -> bool

val satisfies_inclusion : t -> Dl.basic -> Dl.basic -> bool
(** Whether [I(B1) ⊆ I(B2)] holds in this interpretation. *)

val concept_names : t -> string list
val role_names : t -> string list

val to_instance : t -> Whynot_relational.Instance.t
(** The interpretation as a relational instance: each atomic concept becomes
    a unary relation, each atomic role a binary one (names are shared
    verbatim; concept and role names are assumed disjoint). *)
