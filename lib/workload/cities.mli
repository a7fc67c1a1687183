(** The paper's running example: the cities/train-connections schema of
    Figure 1, the instance of Figure 2, the hand-built ontology of Figure 3,
    and the OBDA specification (DL-LiteR TBox + GAV mappings) of Figure 4. *)

open Whynot_relational

val schema : Schema.t
(** Figure 1: data relations [Cities(name, population, country, continent)]
    and [Train-Connections(city_from, city_to)]; views [BigCity],
    [EuropeanCountry], [Reachable]; the FD [country -> continent] and three
    inclusion dependencies. *)

val base_instance : Instance.t
(** Figure 2, data relations only: 8 cities, 6 train connections. *)

val instance : Instance.t
(** Figure 2 with all views materialised. *)

val two_hop_query : Cq.t
(** Example 3.4: [q(x,y) = ∃z. TC(x,z) ∧ TC(z,y)]. *)

val answers : Relation.t
(** [q(I)]: the four tuples of Example 3.4. *)

val missing_tuple : Value.t list
(** [⟨Amsterdam, New York⟩], the why-not tuple of Examples 3.4/4.5/4.9. *)

(** {1 Figure 3: the hand ontology}

    Plain data; {!Whynot_core} wraps it into an S-ontology. *)

val hand_concepts : string list

val hand_hasse : (string * string) list
(** Direct subsumption edges (child, parent) of Figure 3's Hasse diagram. *)

val hand_extensions : (string * string list) list
(** The instance-independent extensions listed in Figure 3. *)

(** {1 Figure 4: the OBDA specification} *)

val obda_tbox : Whynot_dllite.Tbox.t

val obda_mappings : Whynot_obda.Mapping.t list

val obda_spec : Whynot_obda.Spec.t

(** {1 Constants} *)

val amsterdam : Value.t
val rome : Value.t
val new_york : Value.t
