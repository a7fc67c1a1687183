(* Wire envelopes for the why-not server: one JSON object per line in
   each direction, schema_version 3. The module is pure string/JSON
   plumbing — no sockets, no sessions — so the differential tests can
   round-trip envelopes without booting a server. *)

module Wjson = Whynot.Json

let schema_version = 3

type request = {
  id : Wjson.t option;
  op : string;
  session : string option;
  body : Wjson.t;
}

let parse_request line =
  match Wjson.of_string line with
  | Error e -> Error (Whynot_error.message e)
  | Ok (Wjson.Obj _ as body) -> (
    match Wjson.member "op" body with
    | Some (Wjson.String op) ->
      let session =
        Option.bind (Wjson.member "session" body) Wjson.to_string_opt
      in
      Ok { id = Wjson.member "id" body; op; session; body }
    | Some _ -> Error "the \"op\" field must be a string"
    | None -> Error "the request object lacks an \"op\" field")
  | Ok _ -> Error "a request must be a JSON object"

let param req key = Wjson.member key req.body
let str_param req key = Option.bind (param req key) Wjson.to_string_opt
let int_param req key = Option.bind (param req key) Wjson.to_int_opt
let list_param req key = Option.bind (param req key) Wjson.to_list_opt

let value_of_json = function
  | Wjson.Int n -> Ok (Whynot_relational.Value.Int n)
  | Wjson.Float x -> Ok (Whynot_relational.Value.Real x)
  | Wjson.String s -> Ok (Whynot_relational.Value.Str s)
  | j ->
    Error
      (Printf.sprintf "expected a constant (number or string), found %s"
         (Wjson.to_string j))

let values_of_json js =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | j :: rest -> (
      match value_of_json j with
      | Ok v -> go (v :: acc) rest
      | Error _ as e -> e)
  in
  go [] js

let json_of_value = function
  | Whynot_relational.Value.Int n -> Wjson.Int n
  | Whynot_relational.Value.Real x -> Wjson.Float x
  | Whynot_relational.Value.Str s -> Wjson.String s

(* Response headers appear in a fixed order so envelopes are byte-stable:
   schema_version, op, session, id, then result or error. *)

let header ?op ?session ?id () =
  List.concat
    [
      [ ("schema_version", Wjson.Int schema_version) ];
      (match op with Some o -> [ ("op", Wjson.String o) ] | None -> []);
      (match session with
       | Some s -> [ ("session", Wjson.String s) ]
       | None -> []);
      (match id with Some j -> [ ("id", j) ] | None -> []);
    ]

let ok req result =
  Wjson.Obj
    (header ~op:req.op ?session:req.session ?id:req.id ()
     @ [ ("result", result) ])

let error ?request ?op ?session ~code ~message () =
  let op = match request with Some r -> Some r.op | None -> op in
  let session =
    match request with Some r -> r.session | None -> session
  in
  let id = Option.bind request (fun r -> r.id) in
  Wjson.Obj
    (header ?op ?session ?id ()
     @ [
         ( "error",
           Wjson.Obj
             [
               ("code", Wjson.String code);
               ("message", Wjson.String message);
             ] );
       ])

let ok_line req result = Wjson.to_string (ok req result)
