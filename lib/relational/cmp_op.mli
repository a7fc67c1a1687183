(** Comparison operators for conditions [x op c] (the paper allows
    [=, <, >, <=, >=] against constants; no comparisons between variables). *)

type t =
  | Eq
  | Lt
  | Gt
  | Le
  | Ge

val eval : t -> Value.t -> Value.t -> bool
(** [eval op v c] is [v op c]. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string

val all : t list
