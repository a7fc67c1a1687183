(** The concept language [L_S] (Definition 4.6):

    {v
      D ::= R | sigma_{A1 op c1, ..., An op cn}(R)
      C ::= top | {c} | pi_A(D) | C ⊓ C
    v}

    A concept is kept in the normal form [C1 ⊓ ... ⊓ Cn] where each [Ci] is
    an atomic conjunct: a nominal [{c}] or a projection [pi_A(D)] ([top] is
    the empty conjunction). Selections are normalised per attribute to
    canonical interval conditions; conjuncts are sorted and deduplicated, so
    syntactic equality is meaningful modulo those normalisations. *)

open Whynot_relational

type selection = {
  attr : int;                (** 1-based attribute of the selected relation *)
  op : Cmp_op.t;
  value : Value.t;
}

type conjunct =
  | Nominal of Value.t       (** [{c}] *)
  | Proj of {
      rel : string;
      attr : int;            (** the projected attribute *)
      sels : selection list; (** empty list = no selection *)
    }

type t
(** A concept: its normal form and nothing more. Concepts are plain
    values: structurally equal concepts need not be physically equal,
    and no table keeps them alive. *)

(** {2 Smart constructors}

    The only way to build concepts; each normalises (sorts and
    deduplicates conjuncts and selections, flattens meets, absorbs
    [top]). *)

val top : t
val nominal : Value.t -> t
val proj : ?sels:selection list -> rel:string -> attr:int -> unit -> t
val meet : t -> t -> t
val meet_all : t list -> t
val of_conjuncts : conjunct list -> t
val conjuncts : t -> conjunct list
(** Empty list iff the concept is [top]. *)

val is_top : t -> bool
val is_selection_free : t -> bool
val is_intersection_free : t -> bool
(** At most one conjunct. *)

val is_minimal : t -> bool
(** In [L_S^min]: both selection-free and intersection-free. *)

val constants : t -> Value_set.t
(** Constants occurring in the concept (nominals and selection constants). *)

val size : t -> int
(** The length measure of §6: the number of symbols needed to write the
    concept out (a token count). *)

val hash : t -> int
(** A hash of the whole normal form (up to 256 nodes of it), computed on
    each call: [equal c1 c2] implies [hash c1 = hash c2]. With {!equal}
    it makes [Hashtbl.Make (Ls)] a concept-keyed table. *)

val compare : t -> t -> int
(** Structural order on normal forms (with a physical-equality fast
    path). *)

val equal : t -> t -> bool
(** [compare c1 c2 = 0]: physical equality, else equal normal forms. *)

val pp : ?schema:Schema.t -> unit -> Format.formatter -> t -> unit
(** Mathematical rendering, e.g.
    [pi_name(sigma_continent="Europe"(Cities))]; attribute names are used
    when a schema is supplied, positions otherwise. *)

val pp_sql : ?schema:Schema.t -> unit -> Format.formatter -> t -> unit
(** The SELECT-FROM-WHERE rendering of Figure 5. *)

val to_string : ?schema:Schema.t -> t -> string
