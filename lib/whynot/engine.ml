open Whynot_relational
module W = Whynot_core.Whynot
module Ontology = Whynot_core.Ontology
module Incremental = Whynot_core.Incremental
module Exhaustive = Whynot_core.Exhaustive
module Schema_mge = Whynot_core.Schema_mge
module Subsume_memo = Whynot_concept.Subsume_memo
module Pool = Whynot_parallel.Pool
module Par_exhaustive = Whynot_parallel.Par_exhaustive
module Obs = Whynot_obs.Obs

type t = {
  schema : Schema.t option;
  instance : Instance.t;
  pool : Pool.t;
  (* Memo handles owned by this engine, one per worker slot: slot 0 serves
     the calling domain (every sequential operation), slots 1.. only
     Algorithm 1's worker domains. Each slot stays warm across operations;
     no other engine ever sees them. *)
  inst_handles : Subsume_memo.inst array;
  schema_handles : Subsume_memo.schema array option;
  mutable closed : bool;
  (* Definition 5.1 takes the legality of I and Ans = q(I) as inputs of a
     why-not instance. Legality is checked on the first [question] and
     kept; Ans is kept for the last query asked, keyed by the query value
     itself. Plain fields, not [Lazy.t]: engines serve one domain at a
     time, and a racing recomputation is harmless where a racing
     [Lazy.force] raises. *)
  mutable legality : (unit, Whynot_error.t) result option;
  mutable answers : (Cq.t * Relation.t) option;
}

let create ?schema ?(domains = 1) ~instance () =
  if domains < 1 then
    Error
      (`Invalid_config
         (Printf.sprintf "Engine.create: domains must be >= 1 (got %d)" domains))
  else
    let inst_handles =
      Array.init domains (fun _ -> Subsume_memo.inst instance)
    in
    let schema_handles =
      Option.map
        (fun s -> Array.init domains (fun _ -> Subsume_memo.schema s))
        schema
    in
    Ok
      {
        schema;
        instance;
        pool = Pool.create ~domains;
        inst_handles;
        schema_handles;
        closed = false;
        legality = None;
        answers = None;
      }

let domains e = Pool.size e.pool
let schema e = e.schema
let instance e = e.instance
let is_closed e = e.closed

let own_question e wn k =
  if wn.W.instance == e.instance then k ()
  else
    Error
      (`Invalid_config
         "the why-not question was not built over this engine's instance")

(* Every operation funnels through this guard, so a closed engine answers
   [`Closed] uniformly and a tripped cooperative deadline surfaces as
   [`Timeout] instead of an escaping exception. Whatever verdicts were
   cached before the trip are valid and keep later operations warm. *)
let guard e k =
  if e.closed then Error (`Closed "the engine has been closed")
  else
    match k () with
    | r -> r
    | exception Subsume_memo.Deadline_exceeded ->
      Error (`Timeout "the operation exceeded its deadline")

(* [Some t]: every operation issued (or already running) on this engine
   unwinds with [`Timeout] once [Whynot_obs.Obs.now_s () > t]. The
   deadline is installed on every slot's memo handle, so parallel searches
   observe it on all domains. *)
let set_deadline e d =
  Array.iter (fun h -> Subsume_memo.set_inst_deadline h d) e.inst_handles;
  Option.iter
    (Array.iter (fun h -> Subsume_memo.set_schema_deadline h d))
    e.schema_handles

let legality e =
  match (e.legality, e.schema) with
  | Some r, _ -> r
  | None, None -> Ok ()
  | None, Some s ->
    let r = W.legality s e.instance in
    e.legality <- Some r;
    r

(* [None] for an unsafe query, which [Whynot.make] then reports. Ans is
   evaluated over slot 0's index, the engine's own. *)
let cached_answers e query =
  match e.answers with
  | Some (q, r) when Stdlib.compare q query = 0 -> Some r
  | _ when not (Cq.is_safe query) -> None
  | _ ->
    let r = Cq.Plan.eval (Subsume_memo.index e.inst_handles.(0)) query in
    e.answers <- Some (query, r);
    Some r

(* The checks run in [Whynot.make ~schema]'s order: the question's own
   [`Invalid_whynot] errors win over a [`Schema_violation]. *)
let question ?answers e ~query ~missing () =
  guard e (fun () ->
      let answers =
        match answers with Some _ -> answers | None -> cached_answers e query
      in
      Result.bind
        (W.make ?answers ~instance:e.instance ~query ~missing ())
        (fun wn -> Result.map (fun () -> wn) (legality e)))

let pool_of ?values wn =
  match values with Some v -> v | None -> W.constant_pool wn

(* Per-worker O_I[K]: the concept list is enumerated once (on the calling
   domain) and shared; only the memoised [mem]/[subsumes] closures differ
   per slot. *)
let instance_ontology e values =
  let proto =
    Ontology.of_instance_finite ~handle:e.inst_handles.(0) e.instance values
  in
  fun ~worker ->
    if worker = 0 then proto
    else
      {
        (Ontology.of_instance ~handle:e.inst_handles.(worker) e.instance) with
        Ontology.name = proto.Ontology.name;
        concepts = proto.Ontology.concepts;
      }

let schema_ontology e sch shs fragment values =
  let minimal_only = match fragment with `Minimal -> true | _ -> false in
  let proto =
    Ontology.of_schema_finite ~minimal_only ~schema_handle:shs.(0)
      ~handle:e.inst_handles.(0) sch e.instance values
  in
  fun ~worker ->
    if worker = 0 then proto
    else
      {
        (Ontology.of_schema ~schema_handle:shs.(worker)
           ~handle:e.inst_handles.(worker) sch e.instance)
        with
        Ontology.name = proto.Ontology.name;
        concepts = proto.Ontology.concepts;
      }

(* --- Algorithm 2 (incremental, w.r.t. O_I) --- *)

let one_mge ?variant ?order ?shorten e wn =
  guard e (fun () ->
      own_question e wn (fun () ->
          Ok
            (Incremental.one_mge ~handle:e.inst_handles.(0) ?variant ?shorten
               ?order wn)))

let check_mge ?variant e wn ex =
  guard e (fun () ->
      own_question e wn (fun () ->
          Ok (Incremental.check_mge ~handle:e.inst_handles.(0) ?variant wn ex)))

(* --- Algorithm 1 (exhaustive, w.r.t. finite ontologies) --- *)

let all_mges ?values e wn =
  guard e (fun () ->
      own_question e wn (fun () ->
          let ontology = instance_ontology e (pool_of ?values wn) in
          Par_exhaustive.all_mges e.pool ~ontology wn))

let exists_explanation ?values e wn =
  guard e (fun () ->
      own_question e wn (fun () ->
          let ontology = instance_ontology e (pool_of ?values wn) in
          Par_exhaustive.exists_explanation e.pool ~ontology wn))

let one_mge_exhaustive ?values e wn =
  guard e (fun () ->
      own_question e wn (fun () ->
          let ontology = instance_ontology e (pool_of ?values wn) in
          Par_exhaustive.one_mge e.pool ~ontology wn))

let all_mges_schema ?(fragment = `Minimal) ?values e wn =
  guard e (fun () ->
      own_question e wn (fun () ->
          match (e.schema, e.schema_handles) with
          | Some sch, Some shs ->
            let ontology = schema_ontology e sch shs fragment (pool_of ?values wn) in
            Par_exhaustive.all_mges e.pool ~ontology wn
          | _ ->
            Error
              (`Missing_input
                 "schema-level explanation requires an engine created with a \
                  schema")))

let all_mges_finite e o wn =
  guard e (fun () ->
      Par_exhaustive.all_mges e.pool ~ontology:(fun ~worker:_ -> o) wn)

(* --- observability and shutdown --- *)

let counters (_ : t) = Obs.snapshot ()

let close e =
  if not e.closed then begin
    e.closed <- true;
    Pool.close e.pool
  end;
  Ok ()
