(* Unit tests for the Whynot.Engine facade: the error paths return
   [Error _] values instead of raising, its searches agree with the
   algorithms they wrap, [close] bricks the engine, two engines over one
   instance never share memo handles or deadlines, nothing keeps a
   dropped instance alive, and a closed session leaves neither its
   concepts nor any other live memory behind. *)

module Engine = Whynot.Engine
module Error = Whynot.Error

open Whynot_relational
open Whynot_core
module Ls = Whynot_concept.Ls
module Obs = Whynot_obs.Obs
module Cities = Whynot_workload.Cities

let get = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Error.to_string e)

let code = function
  | Ok _ -> "ok"
  | Error e -> Error.code e

let with_engine ?schema f =
  let engine = get (Engine.create ?schema ~instance:Cities.instance ()) in
  Fun.protect ~finally:(fun () -> ignore (Engine.close engine)) @@ fun () ->
  f engine

let cities_question engine =
  get
    (Engine.question engine ~query:Cities.two_hop_query
       ~missing:Cities.missing_tuple ())

(* --- error paths --- *)

let test_create_invalid_domains () =
  Alcotest.(check string)
    "domains = 0 rejected" "invalid-config"
    (code (Engine.create ~domains:0 ~instance:Cities.instance ()));
  Alcotest.(check string)
    "domains = -3 rejected" "invalid-config"
    (code (Engine.create ~domains:(-3) ~instance:Cities.instance ()))

let test_question_arity_mismatch () =
  with_engine @@ fun engine ->
  Alcotest.(check string)
    "1 value against a 2-ary head" "invalid-whynot"
    (code
       (Engine.question engine ~query:Cities.two_hop_query
          ~missing:[ Cities.amsterdam ] ()))

let test_question_tuple_is_answer () =
  with_engine @@ fun engine ->
  Alcotest.(check string)
    "an actual answer is not missing" "invalid-whynot"
    (code
       (Engine.question engine ~query:Cities.two_hop_query
          ~missing:[ Cities.amsterdam; Cities.rome ] ()))

(* Over the kept Ans the engine finds the query's safety and arity once
   and tests "missing ∈ Ans" on the Ans encoding's postings. Its verdict
   must be exactly a fresh [Whynot.make]'s, message and all, on an Ans
   of more than two 63-bit words: every answer is not missing; every
   other pair, values outside the active domain among them, is a
   question over the same answers; a wrong arity keeps its message; and
   the same holds with a head constant outside the active domain. *)
let test_question_over_kept_answers () =
  let schema, instance =
    Whynot_workload.Generate.cities_like ~seed:1 ~n_cities:40 ~n_countries:8
      ~n_connections:80 ()
  in
  let engine = get (Engine.create ~schema ~instance ()) in
  Fun.protect ~finally:(fun () -> ignore (Engine.close engine)) @@ fun () ->
  let agrees query missing =
    match
      ( Engine.question engine ~query ~missing (),
        Whynot.make ~schema ~instance ~query ~missing () )
    with
    | Ok a, Ok b ->
      Relation.equal a.Whynot.answers b.Whynot.answers
      && Tuple.equal a.Whynot.missing b.Whynot.missing
    | Error a, Error b -> String.equal (Error.to_string a) (Error.to_string b)
    | Ok _, Error _ | Error _, Ok _ -> false
  in
  let check name query missing =
    Alcotest.(check bool)
      (Printf.sprintf "%s: %s" name
         (String.concat ", " (List.map Value.to_string missing)))
      true (agrees query missing)
  in
  let query = Cities.two_hop_query in
  let answers = Cq.eval query instance in
  Alcotest.(check bool) "Ans spans three words" true
    (Relation.cardinal answers > 126);
  Relation.iter (fun t -> check "an answer" query (Tuple.to_list t)) answers;
  let cities =
    Value_set.elements
      (Relation.column 1 (Instance.relation_or_empty instance ~arity:4 "Cities"))
  in
  let values =
    Value.str "Atlantis" :: Value.int 7 :: List.filteri (fun k _ -> k mod 3 = 0) cities
  in
  List.iter
    (fun a -> List.iter (fun b -> check "a pair" query [ a; b ]) values)
    values;
  check "one value" query [ List.hd cities ];
  check "three values" query [ List.hd cities; List.hd cities; List.hd cities ];
  let atlantis = Value.str "Atlantis" in
  let with_constant =
    Cq.make ~head:[ Cq.Var "x"; Cq.Const atlantis ] ~atoms:query.Cq.atoms ()
  in
  List.iter
    (fun a ->
      check "head constant" with_constant [ a; atlantis ];
      check "head constant, other value" with_constant [ a; List.hd cities ])
    values

let test_schema_ops_need_schema () =
  with_engine @@ fun engine ->
  let wn = cities_question engine in
  Alcotest.(check string)
    "all_mges_schema without a schema" "missing-input"
    (code (Engine.all_mges_schema engine wn))

let test_infinite_ontology_rejected () =
  with_engine @@ fun engine ->
  let wn = cities_question engine in
  let infinite = Ontology.of_instance Cities.instance in
  Alcotest.(check string)
    "all_mges_finite on O_I" "infinite-ontology"
    (code (Engine.all_mges_finite engine infinite wn))

let test_foreign_question_rejected () =
  with_engine @@ fun engine ->
  (* A structurally identical question over a *different* instance value
     must be refused: the engine's memo handles are keyed to its own
     instance. *)
  let other = Instance.add_fact "Extra" [ Value.int 1 ] Cities.instance in
  let wn =
    get
      (Whynot.make ~instance:other ~query:Cities.two_hop_query
         ~missing:Cities.missing_tuple ())
  in
  Alcotest.(check string)
    "question built over another instance" "invalid-config"
    (code (Engine.one_mge engine wn))

(* --- the engine = the algorithms it wraps --- *)

let test_one_mge_matches_sequential () =
  let seq =
    let wn =
      Whynot.make_exn ~instance:Cities.instance ~query:Cities.two_hop_query
        ~missing:Cities.missing_tuple ()
    in
    Incremental.one_mge wn
  in
  with_engine @@ fun engine ->
  let wn = cities_question engine in
  let got = get (Engine.one_mge engine wn) in
  Alcotest.(check int) "length" (List.length seq) (List.length got);
  Alcotest.(check bool) "concepts equal" true (List.for_all2 Ls.equal seq got)

let test_all_mges_matches_sequential () =
  let o = Ontology.of_instance_finite Cities.instance
      (Whynot.constant_pool
         (Whynot.make_exn ~instance:Cities.instance
            ~query:Cities.two_hop_query ~missing:Cities.missing_tuple ()))
  in
  let seq =
    get
      (Exhaustive.all_mges o
         (Whynot.make_exn ~instance:Cities.instance
            ~query:Cities.two_hop_query ~missing:Cities.missing_tuple ()))
  in
  with_engine @@ fun engine ->
  let wn = cities_question engine in
  let got = get (Engine.all_mges engine wn) in
  Alcotest.(check int) "MGE count" (List.length seq) (List.length got);
  List.iter2
    (fun e e' ->
       Alcotest.(check bool) "equivalent" true (Explanation.equivalent o e e'))
    seq got;
  Alcotest.(check bool) "an explanation exists" true
    (get (Exhaustive.exists_explanation o wn));
  match get (Exhaustive.one_mge o wn) with
  | None -> Alcotest.fail "Exhaustive.one_mge found nothing"
  | Some e ->
    Alcotest.(check bool) "witness is an MGE" true
      (List.exists (Explanation.equivalent o e) seq)

let test_schema_mges_match_sequential () =
  let wn_seq =
    Whynot.make_exn ~schema:Cities.schema ~instance:Cities.instance
      ~query:Cities.two_hop_query ~missing:Cities.missing_tuple ()
  in
  let seq = get (Schema_mge.all_mges `Minimal Cities.schema wn_seq) in
  let o = Schema_mge.ontology `Minimal Cities.schema wn_seq in
  with_engine ~schema:Cities.schema @@ fun engine ->
  let wn = cities_question engine in
  let got = get (Engine.all_mges_schema engine wn) in
  Alcotest.(check int) "schema MGE count" (List.length seq) (List.length got);
  List.iter2
    (fun e e' ->
       Alcotest.(check bool) "schema MGEs equivalent" true
         (Explanation.equivalent o e e'))
    seq got

let test_check_mge () =
  with_engine @@ fun engine ->
  let wn = cities_question engine in
  let e = get (Engine.one_mge engine wn) in
  Alcotest.(check bool) "one_mge's answer passes check_mge" true
    (get (Engine.check_mge engine wn e))

(* --- the why-not instance is built once per engine --- *)

let budget_counters =
  [
    "eval.index.handles";
    "eval.plans.built";
    "eval.index.builds";
    "memo.handles.instance";
    "memo.handles.schema";
  ]

(* Read from the snapshot, not through [Obs.counter]: that call would
   register a misspelt or deleted name and read 0, passing vacuously. *)
let read_budget () =
  let snap = Obs.snapshot () in
  List.map
    (fun n ->
       match List.assoc_opt n snap with
       | Some v -> (n, v)
       | None -> Alcotest.failf "budget counter %s is not registered" n)
    budget_counters

(* Definition 5.1 fixes the legality of I and Ans = q(I) per instance, so
   once the engine is warm a repeated question + search over Figure 2
   creates no eval handle, compiles no plan and builds no index; the
   search runs on the engine's own memo handles and their indexes, so it
   creates none. *)
let test_warm_question_counter_budget () =
  with_engine ~schema:Cities.schema @@ fun engine ->
  let round () =
    let wn = cities_question engine in
    ignore (get (Engine.one_mge engine wn))
  in
  round ();
  let before = read_budget () in
  for _ = 1 to 50 do
    round ()
  done;
  List.iter2
    (fun (n, v0) (_, v1) ->
      Alcotest.(check int) (n ^ " added by 50 warm rounds") 0 (v1 - v0))
    before (read_budget ())

(* Selection-free Algorithm 2 and CHECK-MGE run on position masks
   (Lemma 5.1) and test a replaced position only against the answers
   that position alone excludes (Explanation.Frontier): a warm 40-city
   one_mge fetches no concept extension, and a check_mge one per
   position, which gives both its membership over ids and its support
   (2 here). The attempt schedule is unchanged: the absorption
   tallies are pinned at the figures the full re-test produced. *)
let test_frontier_counter_budget () =
  let schema, instance =
    Whynot_workload.Generate.cities_like ~seed:1 ~n_cities:40 ~n_countries:8
      ~n_connections:80 ()
  in
  let engine = get (Engine.create ~schema ~instance ()) in
  Fun.protect ~finally:(fun () -> ignore (Engine.close engine)) @@ fun () ->
  let answers = Cq.eval Cities.two_hop_query instance in
  let cities =
    Value_set.elements
      (Relation.column 1 (Instance.relation_or_empty instance ~arity:4 "Cities"))
  in
  let pairs =
    List.concat_map (fun a -> List.map (fun b -> [ a; b ]) cities) cities
    |> List.filter (fun m -> not (Relation.mem (Tuple.of_list m) answers))
    |> List.filteri (fun k _ -> k mod 59 = 0)
  in
  let question missing =
    get (Engine.question engine ~query:Cities.two_hop_query ~missing ())
  in
  ignore
    (get
       (Engine.one_mge engine
          (question [ Value.str "city000"; Value.str "city001" ])));
  let ext_calls = Obs.counter "memo.ext.calls"
  and attempts = Obs.counter "mge.incremental.absorb_attempts"
  and absorbed = Obs.counter "mge.incremental.absorbed" in
  let calls f =
    let v0 = Obs.value ext_calls in
    let r = f () in
    (r, Obs.value ext_calls - v0)
  in
  let a0 = Obs.value attempts and b0 = Obs.value absorbed in
  List.iter
    (fun missing ->
      let wn = question missing in
      let before = Obs.value attempts in
      let e, n_one = calls (fun () -> get (Engine.one_mge engine wn)) in
      let tried = Obs.value attempts - before in
      let ok, n_check = calls (fun () -> get (Engine.check_mge engine wn e)) in
      Alcotest.(check bool) "check_mge accepts the one_mge reply" true ok;
      if n_one > 2 then
        Alcotest.failf "memo.ext.calls per one_mge %d over 2 (%d attempts)"
          n_one tried;
      if n_check > 2 then
        Alcotest.failf "memo.ext.calls per check_mge %d over 2" n_check)
    pairs;
  Alcotest.(check int) "questions" 25 (List.length pairs);
  Alcotest.(check int) "absorb attempts" 3964 (Obs.value attempts - a0);
  Alcotest.(check int) "absorbed" 11 (Obs.value absorbed - b0)

(* The engine keeps Ans, encoded as ids, for the last query asked, and
   uses the encoding only for questions over that same Ans. A question
   built outside the engine, by [Whynot.make] over caller-supplied
   answers (the one answer ending in Rome), and questions over a second
   query asked in between must each get what a
   handle-less run, which encodes its own Ans, gives: the same one_mge
   and the same check_mge verdicts on every question's MGE and nominal
   tuple. The handle-less results differ between the questions, so
   answering one with another's encoding fails here. *)
let test_encoding_follows_the_answers () =
  with_engine @@ fun engine ->
  (* Pairs of cities on one continent. *)
  let same_continent =
    let city vs = { Cq.rel = "Cities"; args = List.map (fun v -> Cq.Var v) vs } in
    Cq.make
      ~head:[ Cq.Var "x"; Cq.Var "y" ]
      ~atoms:[ city [ "x"; "p"; "c"; "k" ]; city [ "y"; "q"; "d"; "k" ] ]
      ()
  in
  let subset =
    Relation.filter (fun t -> Value.equal (Tuple.get t 2) Cities.rome)
      Cities.answers
  in
  let ask query =
    get (Engine.question engine ~query ~missing:Cities.missing_tuple ())
  in
  let full = ask Cities.two_hop_query in
  let sub =
    Whynot.make_exn ~answers:subset ~instance:Cities.instance
      ~query:Cities.two_hop_query ~missing:Cities.missing_tuple ()
  in
  let hop = ask same_continent in
  let questions =
    [ ("q(I)", full); ("caller answers", sub); ("same continent", hop) ]
  in
  let fresh wn = Incremental.one_mge wn in
  let candidates =
    List.concat_map
      (fun (_, wn) -> [ fresh wn; Incremental.trivial_explanation wn ])
      questions
  in
  let verdicts check wn = List.map (check wn) candidates in
  let fresh_verdicts = verdicts (fun wn e -> Incremental.check_mge wn e) in
  let same_mges = List.equal Ls.equal in
  List.iteri
    (fun k (n, wn) ->
      List.iteri
        (fun k' (n', wn') ->
          if k < k' then
            Alcotest.(check bool)
              (Printf.sprintf "%s and %s differ without an engine" n n')
              false
              (same_mges (fresh wn) (fresh wn')
              && fresh_verdicts wn = fresh_verdicts wn'))
        questions)
    questions;
  (* Every order of asking: the kept Ans changes with the last query. *)
  let agree (n, wn) =
    Alcotest.(check bool) (n ^ ": one_mge") true
      (same_mges (get (Engine.one_mge engine wn)) (fresh wn));
    Alcotest.(check (list bool)) (n ^ ": check_mge") (fresh_verdicts wn)
      (verdicts (fun wn e -> get (Engine.check_mge engine wn e)) wn)
  in
  List.iter agree questions;
  ignore (ask Cities.two_hop_query);
  List.iter agree (List.rev questions);
  ignore (ask same_continent);
  List.iter agree questions

(* An Ans encoding names the handle and the answers it was made from,
   and a question's ids name its missing tuple; Algorithm 2 rejects ids
   that do not match its run instead of reading them against another
   active domain, other answers or another tuple. *)
let test_foreign_encoding_is_rejected () =
  let wn =
    Whynot.make_exn ~instance:Cities.instance ~query:Cities.two_hop_query
      ~missing:Cities.missing_tuple ()
  in
  let h = Whynot_concept.Subsume_memo.inst Cities.instance in
  let rejected name f =
    Alcotest.(check bool) name true
      (match f () with
       | _ -> false
       | exception Invalid_argument _ -> true)
  in
  let module F = Explanation.Frontier in
  let e = Incremental.one_mge wn in
  let ids ?handle wn =
    F.ids ~answers:(F.encode ?handle wn.Whynot.answers) ?handle wn
  in
  rejected "one_mge: encoded without the run's handle" (fun () ->
      Incremental.one_mge ~handle:h ~ids:(ids wn) wn);
  rejected "one_mge: no handle given" (fun () ->
      Incremental.one_mge ~ids:(ids ~handle:h wn) wn);
  let other = Whynot_concept.Subsume_memo.inst Cities.instance in
  rejected "ids: encoded over another handle" (fun () ->
      F.ids ~answers:(F.encode ~handle:other wn.Whynot.answers) ~handle:h wn);
  rejected "check_mge: encoded over another handle" (fun () ->
      Incremental.check_mge ~handle:h ~ids:(ids ~handle:other wn) wn e);
  let other_answers =
    Relation.filter (fun t -> Value.equal (Tuple.get t 2) Cities.rome)
      wn.Whynot.answers
  in
  rejected "ids: another question's answers" (fun () ->
      F.ids ~answers:(F.encode ~handle:h other_answers) ~handle:h wn);
  (* Both questions are built outside [rejected], which would count
     their own [Invalid_argument] as a rejection. *)
  let other_question =
    Whynot.make_exn ~answers:other_answers ~instance:Cities.instance
      ~query:Cities.two_hop_query ~missing:Cities.missing_tuple ()
  in
  rejected "check_mge: another question's answers" (fun () ->
      Incremental.check_mge ~handle:h ~ids:(ids ~handle:h other_question) wn
        e);
  let other_tuple =
    Whynot.make_exn ~answers:wn.Whynot.answers ~instance:Cities.instance
      ~query:Cities.two_hop_query ~missing:(List.rev Cities.missing_tuple) ()
  in
  rejected "one_mge: another missing tuple" (fun () ->
      Incremental.one_mge ~handle:h ~ids:(ids ~handle:h other_tuple) wn);
  Alcotest.(check bool) "a matching encoding is used" true
    (Incremental.check_mge ~handle:h ~ids:(ids ~handle:h wn) wn e)

(* A handle-less Algorithm 2 run owns exactly one instance handle, shared
   by its lubs, its O_I and its shortening pass. *)
let test_handle_less_one_mge_creates_one_handle () =
  let wn =
    Whynot.make_exn ~instance:Cities.instance ~query:Cities.two_hop_query
      ~missing:Cities.missing_tuple ()
  in
  let handles () = Obs.value (Obs.counter "memo.handles.instance") in
  List.iter
    (fun variant ->
       let before = handles () in
       ignore (Incremental.one_mge ~variant wn);
       Alcotest.(check int) "one handle per call" 1 (handles () - before))
    [ Incremental.Selection_free; Incremental.With_selections ]

let test_question_reports_schema_violation () =
  (* Two cities of one country on different continents break the FD
     country -> continent. *)
  let instance =
    Instance.add_fact "Cities"
      Value.[ str "Utrecht"; int 361924; str "Netherlands"; str "Asia" ]
      Cities.instance
  in
  let engine =
    get (Engine.create ~schema:Cities.schema ~instance ())
  in
  Fun.protect ~finally:(fun () -> ignore (Engine.close engine)) @@ fun () ->
  let ask () =
    code
      (Engine.question engine ~query:Cities.two_hop_query
         ~missing:Cities.missing_tuple ())
  in
  Alcotest.(check string) "first question" "schema-violation" (ask ());
  Alcotest.(check string) "second question" "schema-violation" (ask ())

(* --- shutdown --- *)

let test_close_flushes_and_bricks () =
  let engine =
    get (Engine.create ~instance:Cities.instance ())
  in
  let wn = cities_question engine in
  ignore (get (Engine.one_mge engine wn));
  Alcotest.(check bool) "close succeeds" true
    (Result.is_ok (Engine.close engine));
  Alcotest.(check bool) "is_closed" true (Engine.is_closed engine);
  Alcotest.(check bool) "close is idempotent" true
    (Result.is_ok (Engine.close engine));
  (* Every operation on a closed engine answers uniformly with `Closed. *)
  Alcotest.(check string) "one_mge after close" "closed"
    (code (Engine.one_mge engine wn));
  Alcotest.(check string) "all_mges after close" "closed"
    (code (Engine.all_mges engine wn));
  Alcotest.(check string) "check_mge after close" "closed"
    (code (Engine.check_mge engine wn [ Whynot_concept.Ls.top ]));
  Alcotest.(check string) "all_mges_schema after close" "closed"
    (code (Engine.all_mges_schema engine wn));
  Alcotest.(check string) "question after close" "closed"
    (code
       (Engine.question engine ~query:Cities.two_hop_query
          ~missing:Cities.missing_tuple ()))

let test_deadline_times_out_and_clears () =
  with_engine @@ fun engine ->
  let wn = cities_question engine in
  Engine.set_deadline engine (Some (Obs.now_s () -. 1.));
  Alcotest.(check string) "expired deadline trips one_mge" "timeout"
    (code (Engine.one_mge engine wn));
  Alcotest.(check string) "expired deadline trips all_mges" "timeout"
    (code (Engine.all_mges engine wn));
  Alcotest.(check string) "expired deadline trips check_mge" "timeout"
    (code (Engine.check_mge engine wn (Incremental.trivial_explanation wn)));
  Alcotest.(check string) "expired deadline trips one_mge (sigma)" "timeout"
    (code (Engine.one_mge ~variant:Incremental.With_selections engine wn));
  Alcotest.(check string) "expired deadline trips check_mge (sigma)" "timeout"
    (code
       (Engine.check_mge ~variant:Incremental.With_selections engine wn
          (Incremental.trivial_explanation wn)));
  Engine.set_deadline engine None;
  Alcotest.(check bool) "engine stays usable after a timeout" true
    (Result.is_ok (Engine.one_mge engine wn))

(* Two engines over one instance value own separate memo handles, so a
   deadline on one never reaches the other, and closing one leaves the
   other's deadline in place. *)
let test_engines_isolated () =
  with_engine @@ fun a ->
  with_engine @@ fun b ->
  let wn_b = cities_question b in
  Engine.set_deadline a (Some (Obs.now_s () -. 1.));
  Alcotest.(check string) "A's expired deadline does not reach B" "ok"
    (code (Engine.one_mge b wn_b));
  Engine.set_deadline a None;
  Engine.set_deadline b (Some (Obs.now_s () -. 1.));
  ignore (Engine.close a);
  Alcotest.(check string) "closing A keeps B's deadline" "timeout"
    (code (Engine.one_mge b wn_b))

(* --- ownership: a dropped instance is collectable --- *)

(* A fresh instance value with Figure 2's facts, built at run time so the
   GC can reclaim it (static data never is). *)
let fresh_cities () =
  Instance.fold Instance.add_relation Cities.instance Instance.empty

(* Run [use] on a fresh instance that only a weak pointer sees afterwards,
   then report whether a full major collection reclaims it. *)
let collected use =
  let w = Weak.create 1 in
  let run () =
    let inst = fresh_cities () in
    Weak.set w 0 (Some inst);
    use inst
  in
  (Sys.opaque_identity run) ();
  Gc.full_major ();
  not (Weak.check w 0)

let test_dropped_instances_collected () =
  Alcotest.(check bool) "instance collected after a handle-less Cq.eval" true
    (collected (fun inst ->
         ignore (Sys.opaque_identity (Cq.eval Cities.two_hop_query inst))));
  Alcotest.(check bool) "instance collected after an engine is closed" true
    (collected (fun instance ->
         let engine =
           get (Engine.create ~instance ())
         in
         ignore (get (Engine.one_mge engine (cities_question engine)));
         ignore (Engine.close engine)))

(* --- memory per session: a closed session leaves nothing behind --- *)

(* Concepts are plain values owned by whoever holds them; no process-wide
   table keeps one alive after its session is closed. The instance's
   constants exist only here, built at run time. *)
let test_closed_session_concepts_collected () =
  let w = Weak.create 1 in
  let run () =
    let v k = Value.str ("retention-pin-" ^ string_of_int k) in
    let instance =
      Instance.of_facts
        [ ("Train-Connections", [ [ v 1; v 2 ]; [ v 2; v 3 ] ]) ]
    in
    let engine = get (Engine.create ~instance ()) in
    let wn =
      get
        (Engine.question engine ~query:Cities.two_hop_query
           ~missing:[ v 3; v 1 ] ())
    in
    let mge = get (Engine.one_mge engine wn) in
    ignore (Engine.close engine);
    match List.find_opt (fun c -> not (Ls.is_top c)) mge with
    | Some c -> Weak.set w 0 (Some c)
    | None -> Alcotest.fail "the MGE has no concept other than top"
  in
  (Sys.opaque_identity run) ();
  Gc.full_major ();
  Alcotest.(check bool) "a concept of a closed session is collected" false
    (Weak.check w 0)

(* 50 create/question/one_mge/close sessions over distinct seeded
   instances: each instance has its own population constants, so the
   selections its lubs pick are new concepts. What a session allocates
   dies with it, so the live heap after the 50th session is the live heap
   after the first. *)
let test_session_churn_keeps_live_words_flat () =
  let session seed =
    let _, instance =
      Whynot_workload.Generate.cities_like ~seed ~n_cities:12 ~n_countries:3
        ~n_connections:24 ()
    in
    let engine = get (Engine.create ~instance ()) in
    let wn =
      get
        (Engine.question engine ~query:Cities.two_hop_query
           ~missing:[ Value.str "city000"; Value.str "city001" ] ())
    in
    ignore
      (get (Engine.one_mge ~variant:Incremental.With_selections engine wn));
    ignore (Engine.close engine)
  in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  session 1;
  let after_first = live_words () in
  for seed = 2 to 50 do
    session seed
  done;
  let growth = live_words () - after_first in
  if growth > 4096 then
    Alcotest.failf "live words grew by %d over 49 closed sessions" growth

let () =
  Alcotest.run "engine"
    [
      ( "errors",
        [
          Alcotest.test_case "create rejects bad domain counts" `Quick
            test_create_invalid_domains;
          Alcotest.test_case "question rejects arity mismatch" `Quick
            test_question_arity_mismatch;
          Alcotest.test_case "question rejects actual answers" `Quick
            test_question_tuple_is_answer;
          Alcotest.test_case "question over the kept Ans equals Whynot.make"
            `Quick test_question_over_kept_answers;
          Alcotest.test_case "schema ops need a schema" `Quick
            test_schema_ops_need_schema;
          Alcotest.test_case "infinite ontologies rejected" `Quick
            test_infinite_ontology_rejected;
          Alcotest.test_case "foreign questions rejected" `Quick
            test_foreign_question_rejected;
        ] );
      (* The group keeps its name so its test ids stay stable: it checks
         the engine against the algorithms it wraps. *)
      ( "parallel-vs-sequential",
        [
          Alcotest.test_case "one_mge (Algorithm 2)" `Quick
            test_one_mge_matches_sequential;
          Alcotest.test_case "all_mges (Algorithm 1)" `Quick
            test_all_mges_matches_sequential;
          Alcotest.test_case "all_mges_schema" `Quick
            test_schema_mges_match_sequential;
          Alcotest.test_case "check_mge accepts one_mge" `Quick
            test_check_mge;
        ] );
      ( "question",
        [
          Alcotest.test_case "warm question + one_mge counter budget" `Quick
            test_warm_question_counter_budget;
          Alcotest.test_case "illegal instance reported on every question"
            `Quick test_question_reports_schema_violation;
          Alcotest.test_case "handle-less one_mge creates one memo handle"
            `Quick test_handle_less_one_mge_creates_one_handle;
          Alcotest.test_case "frontier keeps warm requests under budget"
            `Quick test_frontier_counter_budget;
          Alcotest.test_case "Ans encoding follows the question's answers"
            `Quick test_encoding_follows_the_answers;
          Alcotest.test_case "a foreign Ans encoding is rejected" `Quick
            test_foreign_encoding_is_rejected;
        ] );
      ( "shutdown",
        [
          Alcotest.test_case "close flushes and bricks the engine" `Quick
            test_close_flushes_and_bricks;
          Alcotest.test_case "deadlines time out and clear" `Quick
            test_deadline_times_out_and_clears;
          Alcotest.test_case "engines never share handles or deadlines"
            `Quick test_engines_isolated;
          Alcotest.test_case "dropped instances are collected" `Quick
            test_dropped_instances_collected;
        ] );
      ( "memory",
        [
          Alcotest.test_case "closed sessions keep no concept" `Quick
            test_closed_session_concepts_collected;
          Alcotest.test_case "session churn keeps live words flat" `Quick
            test_session_churn_keeps_live_words_flat;
        ] );
    ]
