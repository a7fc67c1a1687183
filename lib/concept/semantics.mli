(** The semantics [[C]]^I of [L_S] concepts (§4.2).

    The extension of [top] is the whole (infinite) constant domain, so
    extensions are represented as either [All] or a finite set. *)

open Whynot_relational

type ext =
  | All                    (** the whole domain [Const] — extension of [top] *)
  | Fin of Value_set.t

val ext_mem : Value.t -> ext -> bool
val ext_inter : ext -> ext -> ext
val ext_subset : ext -> ext -> bool
(** [All ⊆ Fin _] is [false]: the domain is infinite. *)

val ext_equal : ext -> ext -> bool

val conjunct_ext : Ls.conjunct -> Eval_index.t -> ext
(** The extension of one conjunct over the handle's instance, answered
    from its column indexes. Always finite for [Proj] and [Nominal]. *)

val extension : Ls.t -> Instance.t -> ext
(** [[C]]^I, over a fresh index handle owned by the call. *)

val mem : Value.t -> Ls.t -> Instance.t -> bool
(** [mem c C I] iff [c ∈ [[C]]^I] — polynomial time, as required by the
    definition of an S-ontology (Definition 3.1). Uses a fresh index handle
    owned by the call. *)

val indexed_extension : Ls.t -> Eval_index.t -> ext
(** {!extension} over the caller's handle, so a loop over one instance
    builds each index once. *)

val indexed_mem : Value.t -> Ls.t -> Eval_index.t -> bool
(** {!mem} over the caller's handle. *)
