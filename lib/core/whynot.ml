open Whynot_relational

type t = {
  instance : Instance.t;
  query : Cq.t;
  answers : Relation.t;
  missing : Tuple.t;
}

let legality schema instance =
  match Schema.satisfies schema instance with
  | Ok () -> Ok ()
  | Error msg -> Error (`Schema_violation ("instance violates schema: " ^ msg))

let arity_mismatch missing arity =
  Error
    (`Invalid_whynot
       (Printf.sprintf "missing tuple has arity %d, query has arity %d"
          (Tuple.arity missing) arity))

let not_missing =
  Error (`Invalid_whynot "tuple is not missing: it belongs to the answer set")

let make ?schema ?answers ~instance ~query ~missing () =
  let missing = Tuple.of_list missing in
  if not (Cq.is_safe query) then Error (`Invalid_whynot "query is not safe")
  else if Tuple.arity missing <> Cq.arity query then
    arity_mismatch missing (Cq.arity query)
  else
    let answers =
      match answers with
      | Some r -> r
      | None -> Cq.eval query instance
    in
    if Relation.mem missing answers then not_missing
    else
      let legal =
        match schema with None -> Ok () | Some s -> legality s instance
      in
      Result.map (fun () -> { instance; query; answers; missing }) legal

let of_answers ~instance ~query ~arity ~answers ~is_answer ~missing =
  if Tuple.arity missing <> arity then arity_mismatch missing arity
  else if is_answer then not_missing
  else Ok { instance; query; answers; missing }

let make_exn ?schema ?answers ~instance ~query ~missing () =
  match make ?schema ?answers ~instance ~query ~missing () with
  | Ok t -> t
  | Error e -> invalid_arg ("Whynot.make_exn: " ^ Whynot_error.message e)

let arity t = Tuple.arity t.missing

let missing_values t = Tuple.to_list t.missing

let constant_pool ?handle t =
  List.fold_left
    (fun acc v -> Value_set.add v acc)
    (match handle with
     | Some h -> Whynot_concept.Subsume_memo.adom h
     | None -> Instance.adom t.instance)
    (missing_values t)

let pp ppf t =
  Format.fprintf ppf
    "@[<v>why-not %a?@,query: %a@,answers: %d tuple(s)@]" Tuple.pp t.missing
    Cq.pp t.query (Relation.cardinal t.answers)
