open Whynot_relational
module Obs = Whynot_obs.Obs

let c_ext_calls =
  Obs.counter "memo.ext.calls" ~doc:"concept extension requests"

let c_ext_hits =
  Obs.counter "memo.ext.hits" ~doc:"concept extensions answered from cache"

let c_schema_calls =
  Obs.counter "subsume.schema.calls" ~doc:"schema-level subsumption queries"

let c_schema_hits =
  Obs.counter "subsume.schema.hits" ~doc:"schema-level verdicts answered from cache"

let c_translate_calls =
  Obs.counter "memo.translate.calls" ~doc:"concept-to-UCQ translation requests"

let c_translate_hits =
  Obs.counter "memo.translate.hits" ~doc:"translations answered from cache"

let c_lub_calls = Obs.counter "memo.lub.calls" ~doc:"lub requests"
let c_lub_hits = Obs.counter "memo.lub.hits" ~doc:"lubs answered from cache"

let c_handles_inst =
  Obs.counter "memo.handles.instance" ~doc:"instance memo handles created"

let c_handles_schema =
  Obs.counter "memo.handles.schema" ~doc:"schema memo handles created"

(* --- key modules --- *)

module Conj_tbl = Hashtbl.Make (struct
    type t = Ls.conjunct

    let equal a b = Stdlib.compare a b = 0
    let hash = Hashtbl.hash
  end)

module Ls_tbl = Hashtbl.Make (Ls)

module Pair_tbl = Hashtbl.Make (struct
    type t = Ls.t * Ls.t

    let equal (a1, b1) (a2, b2) = Ls.equal a1 a2 && Ls.equal b1 b2
    let hash (a, b) = (Ls.hash a * 65599) + Ls.hash b
  end)

module Lub_tbl = Hashtbl.Make (struct
    type t = Value.t list

    let equal vs1 vs2 = Stdlib.compare vs1 vs2 = 0
    let hash = Hashtbl.hash
  end)

(* --- cooperative deadlines ---

   Every memoised entry point doubles as a cancellation point: when a
   handle carries a deadline (absolute [Obs.now_s] seconds; [0.] = none)
   and the clock has passed it, the call raises [Deadline_exceeded]
   instead of computing. The MGE algorithms funnel all their expensive
   work (extensions, subsumption verdicts, lubs, Table-1 decisions)
   through these entry points, so a long search unwinds within one
   candidate evaluation of the deadline passing — that is how
   [Whynot.Engine] turns a server request deadline into a [`Timeout]
   result without hard-killing any domain. *)

exception Deadline_exceeded

(* A record of floats only is stored flat, so setting the deadline is an
   unboxed store with no write barrier. A schema handle made with an
   instance handle shares that handle's record. *)
type deadline = { mutable at : float }

let c_deadline_trips =
  Obs.counter "memo.deadline.trips"
    ~doc:"operations unwound by a cooperative deadline check"

(* --- handles ---

   A handle is a plain value owned by whoever creates it: an engine keeps
   one instance handle (and at most one schema handle) for its whole
   life, a handle-less entry point creates one per call. Nothing is shared behind the owner's back, so a
   deadline set on one handle never reaches another. Handles are not
   thread-safe; each belongs to one domain at a time. *)

(* Lemma 5.1's data: per active-domain constant, the set of positions
   whose column holds it. *)
type masks = {
  values : Value.t array;  (* adom, ascending *)
  posmasks : Bits.t array;  (* posmasks.(i) belongs to values.(i) *)
  none : Bits.t;  (* the mask of a constant outside adom *)
}

type inst = {
  instance : Instance.t;
  index : Eval_index.t;  (* the handle's own indexes over [instance] *)
  conj_exts : Semantics.ext Conj_tbl.t;
  exts : Semantics.ext Ls_tbl.t;
  mutable positions : (string * int) array option;
  mutable adom : Value_set.t option;
  mutable masks : masks option;
  lubs : Ls.t Lub_tbl.t;  (* lub_sigma results only *)
  deadline : deadline;  (* absolute seconds; 0. = none *)
}

type schema = {
  sschema : Schema.t;
  cls : Subsume_schema.constraint_class;
  sverdicts : Subsume_schema.verdict Pair_tbl.t;
  ucqs : Ucq.t Ls_tbl.t;
  sdeadline : deadline;
}

let check d =
  if d.at > 0. && Obs.now_s () > d.at then begin
    Obs.incr c_deadline_trips;
    raise Deadline_exceeded
  end

let check_inst_deadline h = check h.deadline
let check_schema_deadline h = check h.sdeadline
let set_inst_deadline h = function
  | Some t -> h.deadline.at <- t
  | None -> h.deadline.at <- 0.

let inst instance =
  Obs.incr c_handles_inst;
  {
    instance;
    index = Eval_index.of_instance instance;
    conj_exts = Conj_tbl.create 64;
    exts = Ls_tbl.create 64;
    positions = None;
    adom = None;
    masks = None;
    lubs = Lub_tbl.create 64;
    deadline = { at = 0. };
  }

let instance h = h.instance
let index h = h.index

let conjunct_ext h conj =
  check_inst_deadline h;
  match Conj_tbl.find_opt h.conj_exts conj with
  | Some e -> e
  | None ->
    let e = Semantics.conjunct_ext conj h.index in
    Conj_tbl.add h.conj_exts conj e;
    e

let extension h c =
  check_inst_deadline h;
  Obs.incr c_ext_calls;
  match Ls_tbl.find_opt h.exts c with
  | Some e ->
    Obs.incr c_ext_hits;
    e
  | None ->
    let e =
      List.fold_left
        (fun acc conj -> Semantics.ext_inter acc (conjunct_ext h conj))
        Semantics.All (Ls.conjuncts c)
    in
    Ls_tbl.add h.exts c e;
    e

(* Over one instance [C1 ⊑_I C2] iff [ext(C1) ⊆ ext(C2)] (Prop 4.1): the
   two memoised extensions decide it, so verdicts need no table. *)
let subsumes h c1 c2 = Semantics.ext_subset (extension h c1) (extension h c2)

(* Sorted the way [Ls.of_conjuncts] sorts selection-free projections, so
   bit [k] of a mask is the [k]-th projection of the rendered lub. *)
let positions h =
  match h.positions with
  | Some ps -> ps
  | None ->
    let ps =
      List.concat_map
        (fun name ->
           match Instance.relation h.instance name with
           | None -> []
           | Some r -> List.init (Relation.arity r) (fun i -> (name, i + 1)))
        (Instance.relation_names h.instance)
      |> List.sort Stdlib.compare |> Array.of_list
    in
    h.positions <- Some ps;
    ps

let adom h =
  match h.adom with
  | Some s -> s
  | None ->
    let s = Instance.adom h.instance in
    h.adom <- Some s;
    s

let masks h =
  match h.masks with
  | Some ms -> ms
  | None ->
    let n = Array.length (positions h) in
    let values = Array.of_seq (Value_set.to_seq (adom h)) in
    let posmasks = Array.map (fun _ -> Bits.empty n) values in
    Array.iteri
      (fun k (rel, attr) ->
         Value_set.iter
           (fun v -> Bits.add posmasks.(Sorted.index Value.compare values v) k)
           (Eval_index.column_values h.index ~rel ~attr))
      (positions h);
    let ms = { values; posmasks; none = Bits.empty n } in
    h.masks <- Some ms;
    ms

let adom_array h = (masks h).values
let posmasks h = (masks h).posmasks

let adom_index h v = Sorted.index Value.compare (masks h).values v

let posmask h v =
  match adom_index h v with -1 -> (masks h).none | i -> (masks h).posmasks.(i)

let check_deadline = check_inst_deadline

let memo_lub h x compute =
  check_inst_deadline h;
  Obs.incr c_lub_calls;
  let key = Value_set.elements x in
  match Lub_tbl.find_opt h.lubs key with
  | Some c ->
    Obs.incr c_lub_hits;
    c
  | None ->
    let c = compute () in
    Lub_tbl.add h.lubs key c;
    c

(* --- per-schema handles --- *)

let schema ?inst sschema =
  Obs.incr c_handles_schema;
  {
    sschema;
    cls = Subsume_schema.classify sschema;
    sverdicts = Pair_tbl.create 64;
    ucqs = Ls_tbl.create 64;
    sdeadline =
      (match inst with Some h -> h.deadline | None -> { at = 0. });
  }

let constraint_class h = h.cls

let translate h c =
  Obs.incr c_translate_calls;
  match Ls_tbl.find_opt h.ucqs c with
  | Some u ->
    Obs.incr c_translate_hits;
    u
  | None ->
    let u = To_query.ucq h.sschema c in
    Ls_tbl.add h.ucqs c u;
    u

let decide h c1 c2 =
  check_schema_deadline h;
  Obs.incr c_schema_calls;
  let key = (c1, c2) in
  match Pair_tbl.find_opt h.sverdicts key with
  | Some v ->
    Obs.incr c_schema_hits;
    v
  | None ->
    let v =
      Subsume_schema.decide ~translate:(translate h) h.sschema c1 c2
    in
    Pair_tbl.add h.sverdicts key v;
    v

let schema_subsumes h c1 c2 = decide h c1 c2 = Subsume_schema.Subsumed
