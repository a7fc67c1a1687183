open Whynot_relational
open Whynot_dllite

type t = {
  tbox : Tbox.t;
  schema : Schema.t;
  mappings : Mapping.t list;
}

let validate_mapping schema m =
  if not (Mapping.is_safe m) then
    Error (Format.asprintf "unsafe mapping: %a" Mapping.pp m)
  else
    let bad_atom =
      List.find_opt
        (fun (a : Cq.atom) ->
           match Schema.arity schema a.Cq.rel with
           | None -> true
           | Some k -> k <> List.length a.Cq.args)
        m.Mapping.body_atoms
    in
    match bad_atom with
    | Some a ->
      Error
        (Printf.sprintf "mapping body atom %s undeclared or wrong arity"
           a.Cq.rel)
    | None -> Ok ()

let make ~tbox ~schema ~mappings =
  let rec check = function
    | [] -> Ok { tbox; schema; mappings }
    | m :: rest ->
      (match validate_mapping schema m with
       | Ok () -> check rest
       | Error _ as e -> e)
  in
  check mappings

let make_exn ~tbox ~schema ~mappings =
  match make ~tbox ~schema ~mappings with
  | Ok t -> t
  | Error msg -> invalid_arg ("Spec.make_exn: " ^ msg)

let tbox t = t.tbox
let mappings t = t.mappings

let retrieve t inst =
  List.fold_left
    (fun interp m -> Mapping.retrieve m inst interp)
    Interp.empty t.mappings

let pp ppf t =
  Format.fprintf ppf "@[<v>TBox:@,%a@,Mappings:@,%a@]" Tbox.pp t.tbox
    (Format.pp_print_list Mapping.pp)
    t.mappings
