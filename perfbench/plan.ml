(* Inputs of the benchmark. Every document and question the benchmark
   sends is derived here from the seed, and so is every reference reply
   the wire checks compare against. The server only ever sees the
   generated text. *)

open Whynot_relational
module Parser = Whynot_text.Parser
module W = Whynot_core.Whynot
module Ls = Whynot_concept.Ls
module J = Whynot.Json

(* The Figure 1 schema that [Generate.cities_like] fills. The views stay
   implicit (no [relation] line), as in examples/data/cities.whynot, so
   the server names their attributes a1..ak. *)
let schema_text =
  {|relation Cities(name, population, country, continent)
relation Train-Connections(city_from, city_to)
fd Cities: country -> continent
view BigCity(x) := Cities(x, y, z, w), y >= 5000000
view EuropeanCountry(z) := Cities(x, y, z, "Europe")
view Reachable(x, y) := Train-Connections(x, y)
                      | Train-Connections(x, z), Train-Connections(z, y)
ind BigCity[1] <= Train-Connections[city_from]
ind Train-Connections[city_from] <= Cities[name]
ind Train-Connections[city_to] <= Cities[name]
query q(x, y) := Train-Connections(x, z), Train-Connections(z, y)
|}

type doc = {
  text : string;
  parsed : Parser.document;
  schema : Schema.t;
  instance : Instance.t;
  query : Cq.t;
  missing : Value.t list;  (** the document's [whynot] tuple *)
}

let ok_exn what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ Whynot_error.message e)

let of_text text =
  let parsed = ok_exn "parse" (Parser.parse text) in
  let schema = ok_exn "schema" (Parser.schema_of parsed) in
  match (parsed.Parser.query, parsed.Parser.whynot_tuple) with
  | Some (_, query), Some missing ->
    { text; parsed; schema; instance = Parser.instance_of parsed; query;
      missing }
  | _ -> failwith "generated document lacks a query or a whynot tuple"

(* [n] distinct seeded numbers below [bound], ascending. *)
let ascending st n ~bound =
  let rec draw acc k =
    if k = 0 then List.sort compare acc
    else
      let x = Random.State.int st bound in
      if List.mem x acc then draw acc k else draw (x :: acc) (k - 1)
  in
  Array.of_list (draw [] n)

(* A [Generate.cities_like] instance written out as a document: the two
   data relations as facts, the views left for the server to compute.
   [shape] seeds the generator. [relabel] seeds new names for the cities
   and countries, drawn so that they sort as the old ones do: documents
   of one shape then pose the same search, in the same constant order,
   under different names. *)
let cities_document ?relabel ~shape ~n_cities () =
  let n_countries = max 2 (n_cities / 5) in
  let _, inst =
    Whynot_workload.Generate.cities_like ~seed:shape ~n_cities ~n_countries
      ~n_connections:(2 * n_cities) ()
  in
  let rename =
    match relabel with
    | None -> Fun.id
    | Some seed ->
      let st = Random.State.make [| seed; 0x1abe1 |] in
      let city = ascending st n_cities ~bound:1_000_000
      and country = ascending st n_countries ~bound:10_000 in
      fun v ->
        match v with
        | Value.Str s when String.length s = 7 && String.sub s 0 4 = "city" ->
          Value.str
            (Printf.sprintf "city%06d" city.(int_of_string (String.sub s 4 3)))
        | Value.Str s
          when String.length s = 9 && String.sub s 0 7 = "country" ->
          Value.str
            (Printf.sprintf "country%04d"
               country.(int_of_string (String.sub s 7 2)))
        | v -> v
  in
  let b = Buffer.create 4096 in
  Buffer.add_string b schema_text;
  List.iter
    (fun rel ->
       Relation.iter
         (fun t ->
            Printf.bprintf b "fact %s(%s)\n" rel
              (String.concat ", "
                 (List.map
                    (fun v -> Value.to_string (rename v))
                    (Tuple.to_list t))))
         (Instance.relation_or_empty inst ~arity:0 rel))
    [ "Cities"; "Train-Connections" ];
  (* [cities_like] keeps (city000, city001) outside the answers. *)
  Printf.bprintf b "whynot (%s, %s)\n"
    (Value.to_string (rename (Value.str "city000")))
    (Value.to_string (rename (Value.str "city001")));
  of_text (Buffer.contents b)

let question d missing =
  ok_exn "question"
    (W.make ~schema:d.schema ~instance:d.instance ~query:d.query ~missing ())

(* The server's concept grammar (Handlers renders it, Parser reads it
   back), restated here so the checks compare against an independent
   rendering of the sequential reference algorithms. *)
let render_concept schema c =
  let attr rel a =
    match Schema.attr_name schema ~rel a with
    | Some n -> n
    | None -> string_of_int a
  in
  match Ls.conjuncts c with
  | [] -> "top"
  | cs ->
    String.concat " & "
      (List.map
         (function
           | Ls.Nominal v -> Printf.sprintf "{%s}" (Value.to_string v)
           | Ls.Proj { rel; attr = a; sels } ->
             let sels =
               match sels with
               | [] -> ""
               | _ ->
                 Printf.sprintf "[%s]"
                   (String.concat ", "
                      (List.map
                         (fun (s : Ls.selection) ->
                            Printf.sprintf "%s %s %s" (attr rel s.Ls.attr)
                              (Cmp_op.to_string s.Ls.op)
                              (Value.to_string s.Ls.value))
                         sels))
             in
             Printf.sprintf "%s.%s%s" rel (attr rel a) sels)
         cs)

let render schema e = List.map (render_concept schema) e

(* Sequential reference replies. *)

let ref_one_mge schema wn =
  render schema (Whynot_core.Incremental.one_mge wn)

let ref_all_mges d wn =
  let onto =
    Whynot_core.Ontology.of_instance_finite d.instance (W.constant_pool wn)
  in
  ok_exn "all_mges" (Whynot_core.Exhaustive.all_mges onto wn)
  |> List.map (render d.schema)
  |> List.sort compare

let n_answers wn = Relation.cardinal wn.W.answers
let n_constants wn = Value_set.cardinal (W.constant_pool wn)

(* Every (city, city) pair outside q(I), in a seeded order. *)
let non_answer_pairs ~seed d =
  let cities =
    Relation.to_list
      (Relation.project [ 1 ]
         (Instance.relation_or_empty d.instance ~arity:4 "Cities"))
    |> List.map (fun t -> Tuple.get t 1)
  in
  let answers = Cq.eval d.query d.instance in
  let pairs =
    List.concat_map
      (fun a ->
         List.filter_map
           (fun b ->
              if Relation.mem (Tuple.of_list [ a; b ]) answers then None
              else Some [ a; b ])
           cities)
      cities
    |> Array.of_list
  in
  let st = Random.State.make [| seed; 0x5ca1e |] in
  for i = Array.length pairs - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = pairs.(i) in
    pairs.(i) <- pairs.(j);
    pairs.(j) <- t
  done;
  pairs

(* Request lines. *)

let line fields = J.to_string (J.Obj fields)
let values vs = J.List (List.map Whynot_server.Protocol.json_of_value vs)

let create_workload ~session name =
  line
    [ ("op", J.String "create"); ("session", J.String session);
      ("workload", J.String name) ]

let create_document ?domains ~session d =
  line
    ([ ("op", J.String "create"); ("session", J.String session);
       ("document", J.String d.text) ]
     @ match domains with Some n -> [ ("domains", J.Int n) ] | None -> [])

let op ?missing ?explanation name ~session =
  line
    ([ ("op", J.String name); ("session", J.String session) ]
     @ (match missing with Some m -> [ ("missing", values m) ] | None -> [])
     @
     match explanation with
     | Some e -> [ ("explanation", J.List (List.map (fun s -> J.String s) e)) ]
     | None -> [])
