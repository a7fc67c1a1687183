open Whynot_relational

type source = Workload of string | Inline

type session = {
  name : string;
  doc : Whynot_text.Parser.document;
  schema : Schema.t;
  engine : Whynot.Engine.t;
  query : Cq.t option;
  default_missing : Value.t list option;
  source : source;
  created_at_s : float;
  lock : Mutex.t;
  mutable last_used_s : float;
}

type concept_reader =
  string -> (Whynot_concept.Ls.t, Whynot_error.t) result

module Names = Map.Make (String)

(* Every read and change of [table] holds [mutex]; a change replaces the
   map. *)
type t = {
  max_sessions : int;
  mutable table : (session * concept_reader) Names.t;
  mutex : Mutex.t;
}

let create ~max_sessions =
  { max_sessions; table = Names.empty; mutex = Mutex.create () }

(* [f] runs on the current table under the lock; it raises nothing. *)
let update t f =
  Mutex.lock t.mutex;
  let table, r = f t.table in
  t.table <- table;
  Mutex.unlock t.mutex;
  r

let count t = update t (fun table -> (table, Names.cardinal table))

let add t s =
  let read = Whynot_text.Parser.concept_reader s.doc in
  update t (fun table ->
    if Names.mem s.name table then (table, Error `Exists)
    else if Names.cardinal table >= t.max_sessions then (table, Error `Full)
    else (Names.add s.name (s, read) table, Ok ()))

(* The lookup and the bump are one step under the lock, so the TTL sweep
   either unlinked the session before this request found it or sees it
   used at [now]. *)
let find_reading t name ~now =
  Mutex.lock t.mutex;
  let entry = Names.find_opt name t.table in
  (match entry with Some (s, _) -> s.last_used_s <- now | None -> ());
  Mutex.unlock t.mutex;
  entry

let find t name =
  match find_reading t name ~now:(Whynot_obs.Obs.now_s ()) with
  | Some (s, _) -> Some s
  | None -> None

let remove t name =
  update t (fun table ->
    match Names.find_opt name table with
    | None -> (table, None)
    | Some (s, _) -> (Names.remove name table, Some s))

let sweep t ~ttl_s ~now_s =
  update t (fun table ->
    let stale, live =
      Names.partition (fun _ (s, _) -> now_s -. s.last_used_s > ttl_s) table
    in
    (live, List.map (fun (_, (s, _)) -> s) (Names.bindings stale)))

let drain t =
  update t (fun table ->
    (Names.empty, List.map (fun (_, (s, _)) -> s) (Names.bindings table)))
