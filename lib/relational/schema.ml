type rel_decl = {
  name : string;
  attrs : string list;
}

type t = {
  rels : rel_decl list;
  fds : Fd.t list;
  inds : Ind.t list;
  views : View.t;
}

let ( let* ) r f = Result.bind r f

let find_rel t name = List.find_opt (fun r -> String.equal r.name name) t.rels

let arity t name = Option.map (fun r -> List.length r.attrs) (find_rel t name)

let check_unique_names rels =
  let names = List.map (fun r -> r.name) rels in
  match
    List.find_opt
      (fun n -> List.length (List.filter (String.equal n) names) > 1)
      names
  with
  | Some n -> Error (Printf.sprintf "duplicate relation %s" n)
  | None -> Ok ()

let check_attr_range rels ~what name attrs_used =
  match List.find_opt (fun r -> String.equal r.name name) rels with
  | None -> Error (Printf.sprintf "%s mentions undeclared relation %s" what name)
  | Some r ->
    let k = List.length r.attrs in
    (match List.find_opt (fun a -> a < 1 || a > k) attrs_used with
     | Some a ->
       Error
         (Printf.sprintf "%s: attribute %d out of range 1..%d for %s" what a k
            name)
     | None -> Ok ())

let rec check_all = function
  | [] -> Ok ()
  | r :: rest ->
    let* () = r in
    check_all rest

let make ?(fds = []) ?(inds = []) ?(views = []) rels =
  let* () = check_unique_names rels in
  let* view_coll =
    match View.make views with
    | Ok v -> Ok v
    | Error msg -> Error ("views: " ^ msg)
  in
  let* () =
    check_all
      (List.map
         (fun (d : View.def) ->
            if List.exists (fun r -> String.equal r.name d.name) rels then
              let declared =
                List.length
                  (List.find (fun r -> String.equal r.name d.name) rels).attrs
              in
              if declared = Ucq.arity d.body then Ok ()
              else
                Error
                  (Printf.sprintf "view %s has arity %d but body arity %d"
                     d.name declared (Ucq.arity d.body))
            else Error (Printf.sprintf "view %s not declared as a relation" d.name))
         views)
  in
  let* () =
    check_all
      (List.map
         (fun (fd : Fd.t) ->
            check_attr_range rels ~what:"FD" fd.rel (fd.lhs @ fd.rhs))
         fds)
  in
  let* () =
    check_all
      (List.concat_map
         (fun (ind : Ind.t) ->
            [
              check_attr_range rels ~what:"IND" ind.lhs_rel ind.lhs_attrs;
              check_attr_range rels ~what:"IND" ind.rhs_rel ind.rhs_attrs;
            ])
         inds)
  in
  Ok { rels; fds; inds; views = view_coll }

let make_exn ?fds ?inds ?views rels =
  match make ?fds ?inds ?views rels with
  | Ok t -> t
  | Error msg -> invalid_arg ("Schema.make_exn: " ^ msg)

let relations t = t.rels
let relation_names t = List.map (fun r -> r.name) t.rels

let data_relation_names t =
  let vnames = View.view_names t.views in
  List.filter (fun n -> not (List.mem n vnames)) (relation_names t)

let attrs t name = Option.map (fun r -> r.attrs) (find_rel t name)

let attr_index t ~rel name =
  match find_rel t rel with
  | None -> None
  | Some r ->
    let rec loop i = function
      | [] -> None
      | a :: rest -> if String.equal a name then Some i else loop (i + 1) rest
    in
    loop 1 r.attrs

let attr_name t ~rel i =
  match find_rel t rel with
  | None -> None
  | Some r -> List.nth_opt r.attrs (i - 1)

let fds t = t.fds
let inds t = t.inds
let views t = t.views
let has_views t = View.view_names t.views <> []

let positions t =
  List.concat_map
    (fun r -> List.mapi (fun i _ -> (r.name, i + 1)) r.attrs)
    t.rels

let max_arity t =
  List.fold_left (fun m r -> max m (List.length r.attrs)) 0 t.rels

let conforms t inst =
  check_all
    (List.map
       (fun name ->
          match Instance.relation inst name with
          | None -> Ok ()
          | Some r ->
            let declared = Option.get (arity t name) in
            if Relation.arity r = declared || Relation.is_empty r then Ok ()
            else
              Error
                (Printf.sprintf "relation %s has arity %d, declared %d" name
                   (Relation.arity r) declared))
       (relation_names t))
  |> fun res ->
  let* () = res in
  match
    List.find_opt
      (fun n -> not (List.mem n (relation_names t)))
      (Instance.relation_names inst)
  with
  | Some n -> Error (Printf.sprintf "undeclared relation %s in instance" n)
  | None -> Ok ()

let complete t inst =
  let data = Instance.restrict (data_relation_names t) inst in
  View.materialise t.views data

let satisfies t inst =
  let* () = conforms t inst in
  let rel name =
    Instance.relation_or_empty inst
      ~arity:(Option.value ~default:0 (arity t name))
      name
  in
  let* () =
    check_all
      (List.map
         (fun (fd : Fd.t) ->
            if Fd.satisfied_in fd (rel fd.rel) then Ok ()
            else Error (Format.asprintf "FD violated: %a" Fd.pp fd))
         t.fds)
  in
  let* () =
    check_all
      (List.map
         (fun (ind : Ind.t) ->
            if Ind.satisfied_in ind ~lhs:(rel ind.lhs_rel) ~rhs:(rel ind.rhs_rel)
            then Ok ()
            else Error (Format.asprintf "IND violated: %a" Ind.pp ind))
         t.inds)
  in
  (* One materialisation serves every view: [complete] builds fresh
     instances, so calling it per view repeats all of the view work. *)
  let defs = View.defs t.views in
  let completed = if defs = [] then inst else complete t inst in
  check_all
    (List.map
       (fun (d : View.def) ->
          let expected = Instance.relation_or_empty
              ~arity:(Ucq.arity d.body)
              completed d.name
          in
          if Relation.equal (rel d.name) expected then Ok ()
          else Error (Printf.sprintf "view %s differs from its definition" d.name))
       defs)

let pp ppf t =
  List.iter
    (fun r ->
       Format.fprintf ppf "%s(%s)@." r.name (String.concat ", " r.attrs))
    t.rels;
  List.iter (fun fd -> Format.fprintf ppf "%a@." Fd.pp fd) t.fds;
  List.iter (fun ind -> Format.fprintf ppf "%a@." Ind.pp ind) t.inds;
  View.pp ppf t.views
