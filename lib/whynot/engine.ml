open Whynot_relational
module W = Whynot_core.Whynot
module Ontology = Whynot_core.Ontology
module Incremental = Whynot_core.Incremental
module Exhaustive = Whynot_core.Exhaustive
module Schema_mge = Whynot_core.Schema_mge
module Subsume_memo = Whynot_concept.Subsume_memo
module Frontier = Whynot_core.Explanation.Frontier

(* Ans = q(I) for one safe query of arity [arity], and its encoding as
   ids over the engine's handle, made on the first question over it. *)
type answers = {
  query : Cq.t;
  arity : int;
  relation : Relation.t;
  mutable encoded : Frontier.answers option;
}

type t = {
  schema : Schema.t option;
  instance : Instance.t;
  (* Memo handles owned by this engine: they stay warm across operations
     and no other engine ever sees them. The schema handle shares the
     instance handle's deadline. *)
  inst_handle : Subsume_memo.inst;
  schema_handle : Subsume_memo.schema option;
  mutable closed : bool;
  (* Definition 5.1 takes the legality of I and Ans = q(I) as inputs of a
     why-not instance. Legality is checked on the first [question] and
     kept; Ans is kept for the last query asked, keyed by the query value
     itself, with its encoding. Plain fields, not [Lazy.t]: engines serve
     one domain at a time, and a racing recomputation is harmless where
     a racing [Lazy.force] raises. *)
  mutable legality : (unit, Whynot_error.t) result option;
  mutable answers : answers option;
  (* The last question [question] built over the kept Ans, with the ids
     of its missing values, which the next operation on that question
     reuses. *)
  mutable asked : (W.t * Frontier.ids) option;
}

(* [domains] is validated and otherwise ignored: every search runs on the
   calling domain. *)
let create ?schema ?(domains = 1) ~instance () =
  if domains < 1 then
    Error
      (`Invalid_config
         (Printf.sprintf "Engine.create: domains must be >= 1 (got %d)" domains))
  else
    let inst = Subsume_memo.inst instance in
    Ok
      {
        schema;
        instance;
        inst_handle = inst;
        schema_handle = Option.map (Subsume_memo.schema ~inst) schema;
        closed = false;
        legality = None;
        answers = None;
        asked = None;
      }

let is_closed e = e.closed

(* Every operation checks these first and catches the deadline, so a
   closed engine answers [`Closed] uniformly and a tripped cooperative
   deadline surfaces as [`Timeout] instead of an escaping exception.
   Whatever verdicts were cached before the trip are valid and keep
   later operations warm. *)
let closed = Error (`Closed "the engine has been closed")
let timeout = Error (`Timeout "the operation exceeded its deadline")

let foreign =
  Error
    (`Invalid_config
       "the why-not question was not built over this engine's instance")

let guard e k =
  if e.closed then closed
  else
    match k () with
    | r -> r
    | exception Subsume_memo.Deadline_exceeded -> timeout

let own_question e wn k =
  if wn.W.instance == e.instance then k () else foreign

(* [Some t]: every operation issued (or already running) on this engine
   unwinds with [`Timeout] once [Whynot_obs.Obs.now_s () > t]. One store:
   the schema handle shares the instance handle's deadline. *)
let set_deadline e d = Subsume_memo.set_inst_deadline e.inst_handle d

let legality e =
  match (e.legality, e.schema) with
  | Some r, _ -> r
  | None, None -> Ok ()
  | None, Some s ->
    let r = W.legality s e.instance in
    e.legality <- Some r;
    r

(* The kept Ans of [query], evaluated over the engine's own index when
   another query (or none) is kept; [None] for an unsafe query, which
   [Whynot.make] then reports. A repeated question passes the kept query
   value itself, which [==] recognises without a structural compare. *)
let kept e query =
  match e.answers with
  | Some a when a.query == query || Stdlib.compare a.query query = 0 ->
    Some a
  | _ when not (Cq.is_safe query) -> None
  | _ ->
    let relation = Cq.Plan.eval (Subsume_memo.index e.inst_handle) query in
    let a = { query; arity = Cq.arity query; relation; encoded = None } in
    e.answers <- Some a;
    Some a

let encoding e a =
  match a.encoded with
  | Some enc -> enc
  | None ->
    let enc = Frontier.encode ~handle:e.inst_handle a.relation in
    a.encoded <- Some enc;
    enc

(* The kept encoding when the question's answers are the kept Ans
   (the kept value itself on every question {!question} built, compared
   structurally on one built elsewhere); [None], and Algorithm 2 encodes
   per call, otherwise. *)
let encoded e wn =
  match e.answers with
  | Some a
    when a.relation == wn.W.answers
         || Stdlib.compare a.relation wn.W.answers = 0 ->
    Some (encoding e a)
  | _ -> None

(* The question's ids: those [question] found, when [wn] is the question
   it built last. *)
let ids e wn =
  match e.asked with
  | Some (asked, ids) when asked == wn -> ids
  | _ -> Frontier.ids ?answers:(encoded e wn) ~handle:e.inst_handle wn

(* The checks run in [Whynot.make ~schema]'s order: the question's own
   [`Invalid_whynot] errors win over a [`Schema_violation]. Over the kept
   Ans, the query's safety and arity were found when it was kept, and
   "missing ∈ Ans" is read off the encoding's postings with the missing
   values' ids, which the engine keeps for the operation that follows. *)
let question e ~query ~missing () =
  if e.closed then closed
  else
    let instance = e.instance in
    match
      match kept e query with
      | None -> W.make ~instance ~query ~missing ()
      | Some a -> (
        let missing = Tuple.of_list missing in
        let ids = Frontier.of_missing (encoding e a) missing in
        match
          W.of_answers ~instance ~query ~arity:a.arity ~answers:a.relation
            ~is_answer:(Frontier.is_answer ids) ~missing
        with
        | Ok wn as r ->
          e.asked <- Some (wn, ids);
          r
        | Error _ as r -> r)
    with
    | Ok _ as wn -> ( match legality e with Ok () -> wn | Error _ as r -> r)
    | Error _ as r -> r
    | exception Subsume_memo.Deadline_exceeded -> timeout

let instance_handle e = e.inst_handle
let constant_pool e wn = W.constant_pool ~handle:e.inst_handle wn

let instance_ontology e wn =
  Ontology.of_instance_finite ~handle:e.inst_handle e.instance
    (constant_pool e wn)

(* --- Algorithm 2 (incremental, w.r.t. O_I) --- *)

let one_mge ?variant e wn =
  if e.closed then closed
  else if wn.W.instance != e.instance then foreign
  else
    match
      Incremental.one_mge ~handle:e.inst_handle ~ids:(ids e wn) ?variant wn
    with
    | mge -> Ok mge
    | exception Subsume_memo.Deadline_exceeded -> timeout

let check_mge ?variant e wn ex =
  if e.closed then closed
  else if wn.W.instance != e.instance then foreign
  else
    match
      Incremental.check_mge ~handle:e.inst_handle ~ids:(ids e wn) ?variant wn
        ex
    with
    | verdict -> Ok verdict
    | exception Subsume_memo.Deadline_exceeded -> timeout

(* --- Algorithm 1 (exhaustive, w.r.t. finite ontologies) --- *)

let all_mges e wn =
  guard e (fun () ->
      own_question e wn (fun () ->
          Exhaustive.all_mges (instance_ontology e wn) wn))

let all_mges_schema e wn =
  guard e (fun () ->
      own_question e wn (fun () ->
          match (e.schema, e.schema_handle) with
          | Some sch, Some schema_handle ->
            Exhaustive.all_mges
              (Ontology.of_schema_finite ~minimal_only:true ~schema_handle
                 ~handle:e.inst_handle sch e.instance (constant_pool e wn))
              wn
          | _ ->
            Error
              (`Missing_input
                 "schema-level explanation requires an engine created with a \
                  schema")))

let all_mges_finite e o wn = guard e (fun () -> Exhaustive.all_mges o wn)

(* --- shutdown --- *)

let close e =
  e.closed <- true;
  Ok ()
