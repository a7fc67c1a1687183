(** PTIME subsumption for DL-LiteR TBoxes (Theorem 4.1(1)), by saturation of
    the inclusion assertions, following Calvanese et al. (2007). The
    saturation is computed per basic concept and per role by graph search:
    the subsumers of each are everything it reaches over the one-step
    inclusion edges, built once.

    The saturation derives:
    - a reflexive-transitive positive closure over basic concepts, fed by
      concept axioms and by role inclusions (R1 ⊑ R2 yields
      ∃R1 ⊑ ∃R2 and ∃R1⁻ ⊑ ∃R2⁻);
    - a disjointness relation over basic concepts, fed by negative axioms and
      closed downward under the positive closure;
    - the set of unsatisfiable basic concepts: B with B ⊑ ¬B, and the
      induced role unsatisfiability (a role is unsatisfiable iff its domain
      or range is, and then both are), propagated backwards along the
      positive closure.

    [T ⊨ B1 ⊑ B2] holds iff [B1] is unsatisfiable w.r.t. [T] or [B1 ⊑ B2]
    is in the positive closure. *)

type t
(** A saturated TBox. *)

val saturate : Tbox.t -> t

val tbox : t -> Tbox.t

val subsumes : t -> Dl.basic -> Dl.basic -> bool
(** [subsumes s b1 b2] iff [T ⊨ B1 ⊑ B2]. *)

val disjoint : t -> Dl.basic -> Dl.basic -> bool
(** [disjoint s b1 b2] iff [T ⊨ B1 ⊑ ¬B2]. Sound and complete w.r.t. the
    saturation rules above. *)

val unsatisfiable : t -> Dl.basic -> bool
(** Whether the basic concept is unsatisfiable w.r.t. the TBox. *)

val role_subsumes : t -> Dl.role -> Dl.role -> bool
(** [T ⊨ R1 ⊑ R2] (positive role closure, or [R1] unsatisfiable). *)

val role_disjoint : t -> Dl.role -> Dl.role -> bool

val role_unsatisfiable : t -> Dl.role -> bool

val subsumers : t -> Dl.basic -> Dl.basic list
(** All basic concepts of the signature that subsume the argument. *)

val subsumees : t -> Dl.basic -> Dl.basic list

val universe : t -> Dl.basic list
(** All basic concepts of the TBox signature (see
    {!Tbox.basic_concepts}). *)
