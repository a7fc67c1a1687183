open Whynot_relational

let s = Value.str
let i = Value.int
let var v = Cq.Var v
let atom rel args = { Cq.rel; args }

(* --- scaled cities --- *)

let cities_like ?(seed = 7) ~n_cities ~n_countries ~n_connections () =
  let st = Random.State.make [| seed |] in
  let city k = s (Printf.sprintf "city%03d" k) in
  let country c = s (Printf.sprintf "country%02d" c) in
  let continent c = s (Printf.sprintf "continent%d" (c mod 5)) in
  let cities_rows =
    List.init n_cities (fun k ->
        let c = k mod n_countries in
        let population =
          (* city0 stays small: it must have no outgoing connection (the
             why-not question needs (city0, city1) unreachable) and big
             cities are forced one by the BigCity IND. *)
          if k = 0 then 10_000
          else 10_000 + Random.State.int st 20_000_000
        in
        [
          city k;
          i population;
          country c;
          (* Continent is a function of the country: the FD holds. *)
          continent (c mod 5);
        ])
  in
  let connections =
    List.init n_connections (fun _ ->
        let a = Random.State.int st n_cities
        and b = Random.State.int st n_cities in
        [ city a; city b ])
  in
  (* Remove connections that would put (city0, city1) within two hops, so
     the canonical why-not question is well-formed. *)
  let connections =
    List.filter
      (fun row ->
         match row with
         | [ a; b ] ->
           not
             (Value.equal a (city 0)
              || (Value.equal b (city 1) && not (Value.equal a (city 1))))
         | _ -> true)
      connections
  in
  let schema = Cities.schema in
  let base =
    Instance.of_facts
      [ ("Cities", cities_rows); ("Train-Connections", connections) ]
  in
  (* The BigCity IND requires big cities to have outgoing connections: add
     a self-loopish connection for each big city that lacks one. *)
  let big =
    List.filter_map
      (fun row ->
         match row with
         | [ name; Value.Int pop; _; _ ] when pop >= 5_000_000 -> Some name
         | _ -> None)
      cities_rows
  in
  let base =
    List.fold_left
      (fun inst b ->
         let tc =
           Instance.relation_or_empty inst ~arity:2 "Train-Connections"
         in
         if Value_set.mem b (Relation.column 1 tc)
            || Value.equal b (city 0)
            (* city0 must stay connection-free on the left. *)
         then inst
         else
           let target = city (n_cities - 1) in
           (* Avoid creating a two-hop path from city0 to city1: fall back
              to a self-loop when the default target is city1. *)
           if Value.equal target (city 1) then
             Instance.add_fact "Train-Connections" [ b; b ] inst
           else Instance.add_fact "Train-Connections" [ b; target ] inst)
      base big
  in
  (schema, Schema.complete schema base)

let cities_whynot (schema, inst) =
  let q =
    Cq.make
      ~head:[ var "x"; var "y" ]
      ~atoms:
        [
          atom "Train-Connections" [ var "x"; var "z" ];
          atom "Train-Connections" [ var "z"; var "y" ];
        ]
      ()
  in
  Whynot_core.Whynot.make_exn ~schema ~instance:inst ~query:q
    ~missing:[ s "city000"; s "city001" ]
    ()

(* --- scaled retail --- *)

let retail_like ?(seed = 29) ~n_products ~n_stores ~n_stock () =
  let st = Random.State.make [| seed |] in
  let pid k = s (Printf.sprintf "P%04d" k) in
  let sid k = s (Printf.sprintf "S%03d" k) in
  let categories = [| "audio"; "computing"; "kitchen"; "garden"; "toys" |] in
  let products =
    List.init n_products (fun k ->
        [
          pid k;
          s (Printf.sprintf "product %d" k);
          s categories.(Random.State.int st (Array.length categories));
          i (5 + Random.State.int st 500);
        ])
  in
  let stores =
    List.init n_stores (fun k ->
        [
          sid k;
          s (Printf.sprintf "city%02d" (k mod 17));
          s (Printf.sprintf "state%d" (k mod 5));
        ])
  in
  let stock =
    List.init n_stock (fun _ ->
        [
          pid (Random.State.int st n_products);
          sid (Random.State.int st n_stores);
          (* One row in five is a zero-quantity row, so the qty > 0
             comparison actually filters. *)
          i (if Random.State.int st 5 = 0 then 0
             else 1 + Random.State.int st 50);
        ])
  in
  Instance.of_facts
    [ ("Products", products); ("Stores", stores); ("Stock", stock) ]

let retail_join_query ~category =
  Cq.make
    ~head:[ var "n"; var "city" ]
    ~atoms:
      [
        atom "Products" [ var "p"; var "n"; Cq.Const (s category); var "pr" ];
        atom "Stock" [ var "p"; var "st"; var "q" ];
        atom "Stores" [ var "st"; var "city"; var "state" ];
      ]
    ~comparisons:[ { Cq.subject = "q"; op = Cmp_op.Gt; value = i 0 } ]
    ()

(* --- random hand ontologies --- *)

let random_hand_ontology ?(seed = 11) ~n_concepts ~n_constants () =
  let st = Random.State.make [| seed |] in
  let constant k = s (Printf.sprintf "k%d" k) in
  let all = List.init n_constants constant in
  (* Concept 0 is the root with the full extension; every other concept
     picks a parent among earlier concepts and a random subset of the
     parent's extension. *)
  let extensions = Array.make n_concepts Value_set.empty in
  extensions.(0) <- Value_set.of_list all;
  let subsumptions = ref [] in
  for c = 1 to n_concepts - 1 do
    let parent = Random.State.int st c in
    let parent_ext = Value_set.elements extensions.(parent) in
    let sub =
      List.filter (fun _ -> Random.State.bool st) parent_ext
    in
    let sub = match sub with [] -> [ List.nth parent_ext (Random.State.int st (List.length parent_ext)) ] | _ -> sub in
    extensions.(c) <- Value_set.of_list sub;
    subsumptions :=
      (Printf.sprintf "C%d" c, Printf.sprintf "C%d" parent) :: !subsumptions
  done;
  Whynot_core.Ontology.of_extensions ~name:"random-hand"
    ~subsumptions:!subsumptions
    ~extensions:
      (List.init n_concepts (fun c -> (Printf.sprintf "C%d" c, extensions.(c))))

let arity_whynot ?(seed = 13) ~arity ~n_answers ~n_constants () =
  ignore seed;
  ignore n_constants;
  let x u = s (Printf.sprintf "x%d" u) in
  let inst =
    Instance.of_facts [ ("E", List.init n_answers (fun u -> [ x u; x u ])) ]
  in
  let head = List.init arity (fun k -> var (Printf.sprintf "v%d" k)) in
  let atoms =
    if arity = 1 then [ atom "E" [ var "v0"; var "v0" ] ]
    else
      List.init (arity - 1) (fun k ->
          atom "E" [ var (Printf.sprintf "v%d" k); var (Printf.sprintf "v%d" (k + 1)) ])
  in
  let q = Cq.make ~head ~atoms () in
  Whynot_core.Whynot.make_exn ~instance:inst ~query:q
    ~missing:(List.init arity (fun _ -> s "a"))
    ()

(* --- schemas per Table-1 row --- *)

let binary_rel k =
  { Schema.name = Printf.sprintf "R%d" k; attrs = [ "a"; "b" ] }

let wide_schema ~positions =
  let n = (positions + 1) / 2 in
  Schema.make_exn (List.init n binary_rel)

let fd_schema ~positions =
  let n = (positions + 1) / 2 in
  Schema.make_exn
    ~fds:
      (List.init n (fun k ->
           Fd.make ~rel:(Printf.sprintf "R%d" k) ~lhs:[ 1 ] ~rhs:[ 2 ]))
    (List.init n binary_rel)

let ind_chain_schema ~n_relations =
  Schema.make_exn
    ~inds:
      (List.init (n_relations - 1) (fun k ->
           Ind.make
             ~lhs_rel:(Printf.sprintf "R%d" k)
             ~lhs_attrs:[ 1 ]
             ~rhs_rel:(Printf.sprintf "R%d" (k + 1))
             ~rhs_attrs:[ 1 ]))
    (List.init n_relations binary_rel)

let ucq_view_schema ~n_disjuncts =
  let disjuncts =
    List.init n_disjuncts (fun k ->
        Cq.make ~head:[ var "x" ]
          ~atoms:[ atom "R0" [ var "x"; var "y" ] ]
          ~comparisons:[ { Cq.subject = "y"; op = Cmp_op.Eq; value = i k } ]
          ())
  in
  Schema.make_exn
    ~views:[ { View.name = "V"; body = Ucq.make disjuncts } ]
    [ binary_rel 0; { Schema.name = "V"; attrs = [ "a" ] } ]

let nested_view_schema ~depth =
  let v k = Printf.sprintf "V%d" k in
  let base_view =
    {
      View.name = v 0;
      body =
        Ucq.of_cq
          (Cq.make
             ~head:[ var "x"; var "y" ]
             ~atoms:[ atom "R0" [ var "x"; var "y" ] ]
             ());
    }
  in
  let level k =
    {
      View.name = v k;
      body =
        Ucq.of_cq
          (Cq.make
             ~head:[ var "x"; var "y" ]
             ~atoms:
               [
                 atom (v (k - 1)) [ var "x"; var "z" ];
                 atom (v (k - 1)) [ var "z"; var "y" ];
               ]
             ());
    }
  in
  Schema.make_exn
    ~views:(base_view :: List.init depth (fun k -> level (k + 1)))
    (binary_rel 0
     :: List.init (depth + 1) (fun k -> { Schema.name = v k; attrs = [ "a"; "b" ] }))

let random_selection_free_concept ?(seed = 17) schema ?(conjuncts = 2) () =
  let st = Random.State.make [| seed |] in
  let positions = Schema.positions schema in
  let pick () = List.nth positions (Random.State.int st (List.length positions)) in
  Whynot_concept.Ls.meet_all
    (List.init conjuncts (fun _ ->
         let rel, attr = pick () in
         Whynot_concept.Ls.proj ~rel ~attr ()))

let random_selection_concept ?(seed = 19) schema ?(conjuncts = 2) ?(constants = 5) () =
  let st = Random.State.make [| seed |] in
  let positions = Schema.positions schema in
  let pick () = List.nth positions (Random.State.int st (List.length positions)) in
  Whynot_concept.Ls.meet_all
    (List.init conjuncts (fun _ ->
         let rel, attr = pick () in
         let arity = Option.value ~default:2 (Schema.arity schema rel) in
         let sel_attr = 1 + Random.State.int st arity in
         let op =
           List.nth Cmp_op.all (Random.State.int st (List.length Cmp_op.all))
         in
         Whynot_concept.Ls.proj ~rel ~attr
           ~sels:
             [ { Whynot_concept.Ls.attr = sel_attr; op;
                 value = i (Random.State.int st constants) } ]
           ()))

let random_tbox ?(seed = 23) ~n_atoms ~n_roles ~n_axioms () =
  let st = Random.State.make [| seed |] in
  let open Whynot_dllite in
  let atom_g () = Dl.Atom (Printf.sprintf "A%d" (Random.State.int st n_atoms)) in
  let role_g () =
    let p = Printf.sprintf "P%d" (Random.State.int st (max 1 n_roles)) in
    if Random.State.bool st then Dl.Named p else Dl.Inv p
  in
  let basic_g () =
    if n_roles > 0 && Random.State.int st 3 = 0 then Dl.Exists (role_g ())
    else atom_g ()
  in
  let axiom_g () =
    match Random.State.int st 10 with
    | 0 | 1 -> Tbox.Concept_incl (basic_g (), Dl.Not (basic_g ()))
    | 2 when n_roles > 0 -> Tbox.Role_incl (role_g (), Dl.R (role_g ()))
    | _ -> Tbox.Concept_incl (basic_g (), Dl.B (basic_g ()))
  in
  Tbox.make (List.init n_axioms (fun _ -> axiom_g ()))
