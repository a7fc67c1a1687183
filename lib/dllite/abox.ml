open Whynot_relational

type assertion =
  | Concept_assertion of string * Value.t
  | Role_assertion of string * Value.t * Value.t

type t = { assertions : assertion list }

let empty = { assertions = [] }

let add a t =
  if List.mem a t.assertions then t else { assertions = a :: t.assertions }

let of_list assertions = List.fold_left (fun t a -> add a t) empty assertions

let individuals t =
  List.fold_left
    (fun acc a ->
       match a with
       | Concept_assertion (_, x) -> Value_set.add x acc
       | Role_assertion (_, x, y) -> Value_set.add x (Value_set.add y acc))
    Value_set.empty t.assertions

let to_interp t =
  List.fold_left
    (fun interp a ->
       match a with
       | Concept_assertion (c, x) -> Interp.add_concept_member c x interp
       | Role_assertion (p, x, y) -> Interp.add_role_edge p x y interp)
    Interp.empty t.assertions

(* The basic concepts directly asserted for an individual. *)
let base_basics t x =
  List.concat_map
    (fun a ->
       match a with
       | Concept_assertion (c, y) when Value.equal x y -> [ Dl.Atom c ]
       | Role_assertion (p, y, z) ->
         (if Value.equal x y then [ Dl.Exists (Dl.Named p) ] else [])
         @ (if Value.equal x z then [ Dl.Exists (Dl.Inv p) ] else [])
       | Concept_assertion _ -> [])
    t.assertions

let derived_basics r t x =
  let bases = base_basics t x in
  List.filter
    (fun b -> List.exists (fun b0 -> Reasoner.subsumes r b0 b) bases)
    (Reasoner.universe r)

let consistent r t =
  let clash =
    Value_set.fold
      (fun x acc ->
         match acc with
         | Some _ -> acc
         | None ->
           let bases = base_basics t x in
           let unsat =
             List.find_opt (fun b -> Reasoner.unsatisfiable r b) bases
           in
           (match unsat with
            | Some b ->
              Some
                (Format.asprintf "%a asserted into unsatisfiable %a" Value.pp x
                   Dl.pp_basic b)
            | None ->
              List.find_map
                (fun b1 ->
                   List.find_map
                     (fun b2 ->
                        if Reasoner.disjoint r b1 b2 then
                          Some
                            (Format.asprintf
                               "%a belongs to disjoint %a and %a" Value.pp x
                               Dl.pp_basic b1 Dl.pp_basic b2)
                        else None)
                     bases)
                bases))
      (individuals t) None
  in
  match clash with
  | Some msg -> Error msg
  | None ->
    let role_clash =
      List.find_map
        (fun a ->
           match a with
           | Role_assertion (p, x, y) ->
             List.find_map
               (fun a' ->
                  match a' with
                  | Role_assertion (p', x', y') ->
                    let same = Value.equal x x' && Value.equal y y' in
                    let inverse = Value.equal x y' && Value.equal y x' in
                    if same && Reasoner.role_disjoint r (Dl.Named p) (Dl.Named p')
                    then Some (Printf.sprintf "edge in disjoint roles %s, %s" p p')
                    else if
                      inverse
                      && Reasoner.role_disjoint r (Dl.Named p) (Dl.Inv p')
                    then Some (Printf.sprintf "edge in disjoint roles %s, %s-" p p')
                    else None
                  | Concept_assertion _ -> None)
               t.assertions
           | Concept_assertion _ -> None)
        t.assertions
    in
    (match role_clash with Some msg -> Error msg | None -> Ok ())

let entails r t b x =
  match consistent r t with
  | Error _ -> true
  | Ok () -> List.exists (fun b0 -> Reasoner.subsumes r b0 b) (base_basics t x)

let certain_extension r t b =
  Value_set.filter (fun x -> entails r t b x) (individuals t)
