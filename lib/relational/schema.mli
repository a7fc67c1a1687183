(** Schemas: relation names with named attributes, plus integrity constraints
    (FDs, INDs) and (possibly nested) UCQ view definitions, as in §2. *)

type rel_decl = {
  name : string;
  attrs : string list; (** attribute names; the arity is the length *)
}

type t

val make :
  ?fds:Fd.t list ->
  ?inds:Ind.t list ->
  ?views:View.def list ->
  rel_decl list ->
  (t, string) result
(** Validates: unique relation names, views well-formed and acyclic, view
    names declared, constraint attributes in range. *)

val make_exn :
  ?fds:Fd.t list ->
  ?inds:Ind.t list ->
  ?views:View.def list ->
  rel_decl list ->
  t

val relations : t -> rel_decl list
val relation_names : t -> string list
val data_relation_names : t -> string list
(** Relations that are not views (the paper's [D]). *)

val arity : t -> string -> int option
val attrs : t -> string -> string list option

val attr_index : t -> rel:string -> string -> int option
(** 1-based position of a named attribute. *)

val attr_name : t -> rel:string -> int -> string option

val fds : t -> Fd.t list
val inds : t -> Ind.t list
val views : t -> View.t
val has_views : t -> bool

val positions : t -> (string * int) list
(** All (relation, attribute) pairs — the atomic selection-free concepts. *)

val max_arity : t -> int

val complete : t -> Instance.t -> Instance.t
(** Materialise all views on top of the instance's data relations,
    overwriting any pre-existing view relations. *)

val satisfies : t -> Instance.t -> (unit, string) result
(** Conformance + every FD, IND holds and every view relation equals its
    definition's extension. *)

val pp : Format.formatter -> t -> unit
