(** Parser for the why-not text format. A document is a sequence of items:

    {v
    # relations, constraints, views
    relation Cities(name, population, country, continent)
    relation Train-Connections(city_from, city_to)
    fd Cities: country -> continent
    ind BigCity[name] <= Train-Connections[city_from]
    view BigCity(x) := Cities(x, y, z, w), y >= 5000000
    view Reachable(x, y) := Train-Connections(x, y)
                          | Train-Connections(x, z), Train-Connections(z, y)

    # facts (bare identifiers are string constants here)
    fact Cities("Amsterdam", 779808, "Netherlands", "Europe")

    # the query and the why-not tuple
    query q(x, y) := Train-Connections(x, z), Train-Connections(z, y)
    whynot ("Amsterdam", "New York")

    # optional hand ontology (Figure 3 style)
    concept Dutch-City [= European-City
    ext Dutch-City = {"Amsterdam"}

    # optional DL-LiteR TBox and GAV mappings (Figure 4 style)
    axiom EU-City [= City
    axiom EU-City [= not NA-City
    axiom exists hasCountry- [= Country
    mapping Cities(x, z, w, "Europe") -> EU-City(x)
    v}

    In rule bodies (views, queries, mappings), bare identifiers are
    variables and quoted strings / numbers are constants; [fd] attributes
    may be named (resolved against the relation declaration) or positional
    numbers. *)

open Whynot_relational

type document = {
  relations : Schema.rel_decl list;
  fds : Fd.t list;
  inds : Ind.t list;
  views : View.def list;
  facts : (string * Tuple.t array) list;
    (** one batch per relation, in the order of its first fact: the
        relation's facts in source order, duplicates kept *)
  query : (string * Cq.t) option;
  whynot_tuple : Value.t list option;
  concepts : (string * string) list;    (** hand-ontology subsumption edges *)
  extensions : (string * Value_set.t) list;
  tbox_axioms : Whynot_dllite.Tbox.axiom list;
  mappings : Whynot_obda.Mapping.t list;
  rules : Whynot_datalog.Program.rule list;
    (** possibly recursive Datalog rules ([rule P(x) := ..., !Q(x)]) *)
}

val parse : string -> (document, Whynot_error.t) result
(** Lexer and grammar failures are [`Parse] with a [line N] prefix; a
    lexical error anywhere in the source is reported before any other.
    The parser reads the source as a token stream, and each fact goes
    straight into its relation's batch. *)

val parse_file : string -> (document, Whynot_error.t) result
(** Additionally [`Missing_input] when the file cannot be read. *)

val schema_of : document -> (Schema.t, Whynot_error.t) result
(** A view the document never declares as a relation is declared
    implicitly, with attributes named [a1..aN]. *)

val instance_of : ?schema:Schema.t -> document -> Instance.t
(** The facts, with the document's views materialised when the schema is
    well-formed. Each relation is built once from its batch
    ({!Relation.of_array}: duplicates collapse, arities are checked), and
    the views of one dependency level are evaluated over one index
    ({!View.materialise}). [schema] is the document's {!schema_of}, for a
    caller that has it already.
    @raise Invalid_argument when a relation's facts differ in arity. *)

val whynot_of : document -> (Whynot_core.Whynot.t, Whynot_error.t) result
(** Requires a query and a whynot tuple. *)

val hand_ontology_of : document -> string Whynot_core.Ontology.t option
(** [Some] iff the document declares at least one concept extension. *)

val obda_spec_of : document -> (Whynot_obda.Spec.t option, Whynot_error.t) result
(** [Some] iff the document declares TBox axioms or mappings. *)

val program_of :
  document -> (Whynot_datalog.Program.t option, Whynot_error.t) result
(** The document's [rule] items as a validated (safe, stratified) Datalog
    program; [None] when there are no rules. *)

val values_of_string : string -> (Value.t list, Whynot_error.t) result
(** Parse a comma-separated constant list, e.g. ["Amsterdam", 7]. *)

val concept_reader :
  document -> string -> (Whynot_concept.Ls.t, Whynot_error.t) result
(** [concept_reader doc] reads [L_S] concept expressions over [doc]. It
    is staged: the relations of {!schema_of} and their attributes are
    looked up once, when it is applied to [doc], and each string read
    after that reuses them. Expressions:

    {v
      concept := conjunct ('&' conjunct)*
      conjunct := 'top' | '{' constant '}' | REL '.' ATTR selections?
      selections := '[' ATTR op constant (',' ATTR op constant)* ']'
    v}

    e.g. [Cities.name[continent = "Europe", population >= 5000000] & {"Rome"}].
    Attribute names are resolved against the relations of {!schema_of}:
    the declared ones, and each undeclared view with attributes
    [a1..aN]; positional numbers are accepted too. *)

val render_concept : Schema.t -> Whynot_concept.Ls.t -> string
(** A concept in the grammar {!concept_reader} reads, attributes named
    as [schema] declares them (positional numbers when it names none):
    a reader over the schema's document reads it back. The wire server
    renders every concept it sends with it. *)

val concept_of_string :
  document -> string -> (Whynot_concept.Ls.t, Whynot_error.t) result
(** [concept_reader doc src], for one concept: the lookup is built per
    call. A caller reading many concepts over one document applies
    {!concept_reader} once. *)
