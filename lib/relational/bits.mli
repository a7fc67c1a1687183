(** Sets of small non-negative integers as arrays of [Sys.int_size]-bit
    words: the answer sets of Algorithm 1's plan and the position sets of
    selection-free lubs. Sets meant to be combined must be made with the
    same capacity. Sets of at most [Sys.int_size] members fit one word,
    and every operation takes a one-word fast path on them. *)

type t = private int array

val empty : int -> t
(** The empty set with room for members [0 .. n-1]; one word when
    [n <= Sys.int_size]. *)

val full : int -> t
(** [{0, ..., n-1}]. *)

val add : t -> int -> unit
(** Add a member in place. *)

val mem : t -> int -> bool

val remove : t -> int -> t
(** A copy without the member. *)

val is_empty : t -> bool

val equal : t -> t -> bool

val union : t -> t -> t

val inter : t -> t -> t

val subset : t -> t -> bool
(** [subset a b] iff every member of [a] is in [b]. *)

val disjoint : t -> t -> bool
(** [disjoint a b] iff [inter a b] is empty, without building it. *)

val inter_subset : t -> t -> t -> bool
(** [inter_subset a b c] iff [subset (inter a b) c], without building
    the intersection. *)

val covers : t -> t -> t -> bool
(** [covers all a b]: every member of [all] is in [a] or in [b]. *)

val iter : (int -> unit) -> t -> unit
(** The members in increasing order, visiting set bits only. *)

val iter_word : (int -> unit) -> int -> int -> unit
(** [iter_word f base w] calls [f (base + i)] for every set bit [i] of
    the word [w], in increasing order: {!iter} on one word, for a word
    computed rather than stored. *)
