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

type t = {
  max_sessions : int;
  table : (string, session * concept_reader) Hashtbl.t;
  mutex : Mutex.t;
}

let create ~max_sessions =
  { max_sessions; table = Hashtbl.create 16; mutex = Mutex.create () }

let count t = Mutex.protect t.mutex (fun () -> Hashtbl.length t.table)

let add t s =
  let read = Whynot_text.Parser.concept_reader s.doc in
  Mutex.protect t.mutex (fun () ->
    if Hashtbl.mem t.table s.name then Error `Exists
    else if Hashtbl.length t.table >= t.max_sessions then Error `Full
    else begin
      Hashtbl.replace t.table s.name (s, read);
      Ok ()
    end)

let find_reading t name =
  Mutex.protect t.mutex (fun () ->
    match Hashtbl.find_opt t.table name with
    | None -> None
    | Some ((s, _) as entry) ->
      s.last_used_s <- Whynot_obs.Obs.now_s ();
      Some entry)

let find t name = Option.map fst (find_reading t name)

let remove t name =
  Mutex.protect t.mutex (fun () ->
    match Hashtbl.find_opt t.table name with
    | None -> None
    | Some (s, _) ->
      Hashtbl.remove t.table name;
      Some s)

let sweep t ~ttl_s ~now_s =
  Mutex.protect t.mutex (fun () ->
    let stale =
      Hashtbl.fold
        (fun _ (s, _) acc ->
           if now_s -. s.last_used_s > ttl_s then s :: acc else acc)
        t.table []
    in
    List.iter (fun s -> Hashtbl.remove t.table s.name) stale;
    stale)

let drain t =
  Mutex.protect t.mutex (fun () ->
    let all = Hashtbl.fold (fun _ (s, _) acc -> s :: acc) t.table [] in
    Hashtbl.reset t.table;
    all)
