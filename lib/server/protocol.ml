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
   schema_version, op, session, id, then result or error. The envelope
   is written straight into its line's buffer. *)

let version_prefix = "{\"schema_version\":" ^ string_of_int schema_version

let add_header b op session id =
  Buffer.add_string b version_prefix;
  (match op with
   | Some o ->
     Buffer.add_string b ",\"op\":";
     Wjson.add_string b o
   | None -> ());
  (match session with
   | Some s ->
     Buffer.add_string b ",\"session\":";
     Wjson.add_string b s
   | None -> ());
  match id with
  | Some j ->
    Buffer.add_string b ",\"id\":";
    Wjson.write b j
  | None -> ()

let finish b ~newline =
  Buffer.add_char b '}';
  if newline then Buffer.add_char b '\n';
  Buffer.contents b

let ok_envelope ~newline req result =
  let b = Buffer.create 256 in
  add_header b (Some req.op) req.session req.id;
  Buffer.add_string b ",\"result\":";
  Wjson.write b result;
  finish b ~newline

let ok_line req result = ok_envelope ~newline:false req result
let ok_reply req result = ok_envelope ~newline:true req result

let error_reply ?request ~code ~message () =
  let b = Buffer.create 256 in
  (match request with
   | Some r -> add_header b (Some r.op) r.session r.id
   | None -> add_header b None None None);
  Buffer.add_string b ",\"error\":{\"code\":";
  Wjson.add_string b code;
  Buffer.add_string b ",\"message\":";
  Wjson.add_string b message;
  Buffer.add_char b '}';
  finish b ~newline:true
