(** Constants of the data domain [Const].

    The paper assumes a countably infinite set of constants equipped with a
    dense linear order. We realise [Const] as the disjoint union of integers,
    reals and strings, totally ordered as follows: numbers precede strings;
    numbers are ordered by numeric value, with [Int n] immediately preceding
    [Real x] when [n = x]; strings are ordered lexicographically.

    Density holds on the numeric line (between any two distinct numbers a real
    exists) and almost everywhere on strings; {!between} returns [None] for
    the few gaps. All algorithms that enumerate representative values treat a
    [None] gap as an empty region of the domain, which is sound because the
    region really is empty in our realisation of [Const]. *)

type t =
  | Int of int
  | Real of float
  | Str of string

val compare : t -> t -> int
(** Total order described above. *)

val equal : t -> t -> bool

val hash : t -> int

val to_string : t -> string
(** Integers as [string_of_int], reals as [%g], strings quoted and escaped
    as [%S] prints them. *)

val add_decimal : Buffer.t -> int -> unit
(** [add_decimal buf n] appends [string_of_int n] without libc's
    formatting, which [string_of_int] goes through: {!to_string}'s
    integers and the wire encoder's. *)

val pp : Format.formatter -> t -> unit
(** Prints {!to_string}. *)

val of_string : string -> t
(** Parses an integer, then a float, then falls back to a string. Quoted
    strings have their quotes stripped. *)

val int : int -> t
val real : float -> t
val str : string -> t

val between : t -> t -> t option
(** [between a b] is a value strictly between [a] and [b] when one exists
    ([a] must be strictly smaller than [b]; the order of arguments is
    normalised internally). *)

val below : t -> t
(** A value strictly smaller than the argument. *)

val above : t -> t
(** A value strictly larger than the argument. *)
