(** Deterministic (seeded) workload generators for the benchmark harness.

    Each generator is parameterised by the quantity the corresponding
    experiment sweeps (instance size, query arity, ontology size, view
    nesting depth, ...), so `bench/main.ml` can regenerate every table and
    figure shape of EXPERIMENTS.md. *)

open Whynot_relational

(** {1 Scaled cities-style instances (Figures 1/2 blown up)} *)

val cities_like :
  ?seed:int -> n_cities:int -> n_countries:int -> n_connections:int -> unit ->
  Schema.t * Instance.t
(** The Figure 1 schema with a synthetic instance: [n_cities] cities over
    [n_countries] countries (continents assigned per country so the FD
    holds), [n_connections] train connections whose endpoints are cities
    (so the INDs hold), views materialised. *)

val cities_whynot :
  Schema.t * Instance.t -> Whynot_core.Whynot.t
(** The two-hop why-not question on a generated cities instance: why is
    (city_0, city_1) not connected in two hops? The generator guarantees the
    pair is not in the answer by removing offending connections. *)

(** {1 Scaled retail-style instances (EVAL kernel sweep)} *)

val retail_like :
  ?seed:int -> n_products:int -> n_stores:int -> n_stock:int -> unit ->
  Instance.t
(** The introduction's retail shape scaled up: [Products(pid, name,
    category, price)] over five categories, [Stores(sid, city, state)],
    and [n_stock] random [Stock(pid, sid, qty)] rows (one in five with
    quantity zero, so the canonical [qty > 0] selection filters). *)

val retail_join_query : category:string -> Cq.t
(** [q(name, city)]: the three-way Products–Stock–Stores join restricted
    to one product category (a constant in an atom position) and to
    positive quantities (a pushed-down comparison) — the EVAL benchmark's
    planned-vs-naive workload. *)

(** {1 Random finite ontologies (Algorithm 1 scaling)} *)

val random_hand_ontology :
  ?seed:int -> n_concepts:int -> n_constants:int -> unit ->
  string Whynot_core.Ontology.t
(** A random forest-shaped concept hierarchy over constants [k0..k_{n-1}]
    with monotone extensions (children's extensions are subsets of their
    parents'), instance-independent, à la Figure 3. *)

val arity_whynot :
  ?seed:int -> arity:int -> n_answers:int -> n_constants:int -> unit ->
  Whynot_core.Whynot.t
(** A why-not question of the given query arity over a chain query, with
    [n_answers] diagonal answers — the arity knob of Theorems 5.1/5.2. *)

(** {1 Schemas per Table-1 row} *)

val wide_schema : positions:int -> Schema.t
(** [ceil(positions/2)] binary relations, no constraints. *)

val fd_schema : positions:int -> Schema.t
(** Binary relations, each with the FD [1 -> 2]. *)

val ind_chain_schema : n_relations:int -> Schema.t
(** Unary-projection IND chain [R_i[1] ⊆ R_{i+1}[1]]. *)

val ucq_view_schema : n_disjuncts:int -> Schema.t
(** One flat view [V] defined as a union of [n_disjuncts] CQs over a binary
    base relation, with distinct selection constants per disjunct. *)

val nested_view_schema : depth:int -> Schema.t
(** Views [V_0, ..., V_{depth}] where [V_0] is a base-table view and each
    [V_{i+1}] joins [V_i] twice — unfolding doubles per level, the
    coNEXPTIME-shaped knob of Table 1. *)

val random_selection_free_concept :
  ?seed:int -> Schema.t -> ?conjuncts:int -> unit -> Whynot_concept.Ls.t

val random_selection_concept :
  ?seed:int -> Schema.t -> ?conjuncts:int -> ?constants:int -> unit ->
  Whynot_concept.Ls.t

(** {1 Random DL-LiteR TBoxes} *)

val random_tbox :
  ?seed:int -> n_atoms:int -> n_roles:int -> n_axioms:int -> unit ->
  Whynot_dllite.Tbox.t
