(** OBDA specifications (Definition 4.3): a triple [B = (T, S, M)] of a
    DL-LiteR TBox, a relational schema, and GAV mapping assertions from [S]
    to the concepts/roles of [T]. *)

open Whynot_relational
open Whynot_dllite

type t

val make :
  tbox:Tbox.t -> schema:Schema.t -> mappings:Mapping.t list -> (t, string) result
(** Validates: mapping bodies range over declared relations with correct
    arities, mappings are safe, and mapping heads use the TBox signature
    (heads over concepts/roles absent from the TBox are allowed — they are
    simply unconstrained — but get a warning-free pass). *)

val make_exn :
  tbox:Tbox.t -> schema:Schema.t -> mappings:Mapping.t list -> t

val tbox : t -> Tbox.t
val mappings : t -> Mapping.t list

val retrieve : t -> Instance.t -> Interp.t
(** The minimal (ΦC, ΦR)-interpretation of the retrieved assertions: the
    union over all mapping assertions of the facts their bodies derive from
    the instance. This is the least solution w.r.t. the mappings alone
    (ignoring TBox axioms). *)

val pp : Format.formatter -> t -> unit
