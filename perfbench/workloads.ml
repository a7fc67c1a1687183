(* The four traffic mixes. A workload is built once per run from the
   seed (documents, question streams); [session] then yields the
   per-server part: the [create] requests of set-up and one request
   source per connection. Reference replies are computed in-process by
   [prepare], before any server starts; the in-process replay never
   computes them, so it starts as cold as a fresh server. *)

module J = Whynot.Json
module P = Plan
open Wire

type session = {
  setup : request list;              (** sent in order on one connection *)
  agents : (unit -> request) array;  (** one request source per connection *)
}

type t = {
  name : string;
  conns : int;
  open_loop : bool;
  count_requests : int;  (** length of the sequential counting phase *)
  limit_us : float;      (** the p99 latency limit of [max_rate_rps] *)
  prepare : unit -> unit;
  session : unit -> session;
}

let req ?(known = no_known) ?(after = ignore) op line check =
  { op; line; check; known; after }

let created name =
  req "create" "" (fun r -> member_is "session" (J.String name) r)

let create_doc ?domains name d =
  { (created name) with line = P.create_document ?domains ~session:name d }

let mge_is expected r =
  Option.bind (J.member "mge" r) strings = Some (Lazy.force expected)

(* --- fig2-hot: Figure 2, one warm question, one connection --- *)

(* One connection: at two, on a 2-vCPU host shared with other tenants,
   the p50 measured how often the two requests met in the server, which
   followed the host's scheduling (305 to 740 us over twenty runs). *)
let fig2_hot ~seed:_ =
  let module C = Whynot_workload.Cities in
  let wn =
    lazy
      (P.ok_exn "question"
         (Whynot_core.Whynot.make ~schema:C.schema ~instance:C.instance
            ~query:C.two_hop_query ~missing:C.missing_tuple ()))
  in
  let expected = lazy (P.ref_one_mge C.schema (Lazy.force wn)) in
  let session () =
    let r = req "one_mge" (P.op "one_mge" ~session:"h0") (mge_is expected) in
    {
      setup = [ { (created "h0") with line = P.create_workload ~session:"h0" "cities" } ];
      agents = [| (fun () -> r) |];
    }
  in
  { name = "fig2-hot"; conns = 1; open_loop = false; count_requests = 2000;
    limit_us = 10_000.; prepare = (fun () -> ignore (Lazy.force expected));
    session }

(* --- scaled-open: distinct questions on one 40-city session --- *)

(* The recorded defect: concepts over an implicitly declared view render
   with auto-named attributes (BigCity.a1), which check_mge's concept
   parser then rejects. *)
let implicit_view_defect (code, msg) =
  let needle = "undeclared relation" in
  let n = String.length needle in
  let rec has i =
    i + n <= String.length msg && (String.sub msg i n = needle || has (i + 1))
  in
  code = "parse" && has 0

(* The [cities_like] shape of scaled-open and alg1-exhaustive; the seed
   renames it (see [Plan.cities_document]). *)
let fixed_shape = 1

let scaled_open ~seed =
  let d = P.cities_document ~relabel:seed ~shape:fixed_shape ~n_cities:40 () in
  let pairs = P.non_answer_pairs ~seed d in
  let session () =
    let next_pair = ref 0 in
    let to_check = Queue.create () in
    let next () =
      match Queue.take_opt to_check with
      | Some (missing, expl) ->
        req "check_mge" ~known:implicit_view_defect
          (P.op "check_mge" ~session:"s0" ~missing ~explanation:expl)
          (member_is "is_mge" (J.Bool true))
      | None ->
        let missing = pairs.(!next_pair mod Array.length pairs) in
        incr next_pair;
        req "one_mge"
          (P.op "one_mge" ~session:"s0" ~missing)
          (fun r ->
             match Option.bind (J.member "mge" r) strings with
             | Some (_ :: _) -> true
             | _ -> false)
          ~after:(fun r ->
            match Option.bind (J.member "mge" r) strings with
            | Some e -> Queue.push (missing, e) to_check
            | None -> ())
    in
    { setup = [ create_doc "s0" d ]; agents = [| next |] }
  in
  { name = "scaled-open"; conns = 1; open_loop = true; count_requests = 200;
    limit_us = 50_000.; prepare = ignore; session }

(* --- session-churn: more live sessions than the eval registry holds --- *)

let churn_pool = 80
let churn_close_every = 8

let churn_doc ~seed k =
  (* 10 to 40 cities, each document its own generator seed. *)
  let st = Random.State.make [| seed; k; 0xc4 |] in
  let n_cities = 10 + Random.State.int st 31 in
  let d = P.cities_document ~shape:(Random.State.bits st) ~n_cities () in
  ( d,
    lazy
      (let wn = P.question d d.P.missing in
       (P.n_answers wn, P.n_constants wn, P.ref_one_mge d.P.schema wn)) )

let session_churn ~seed =
  (* Replacement documents come from a pre-generated pool, reused in
     turn once a run has closed more sessions than the pool holds. *)
  let docs = Array.init (3 * churn_pool) (churn_doc ~seed) in
  let session () =
    let slots = Array.init churn_pool (fun k -> (Printf.sprintf "c%d" k, k)) in
    let cursor = ref 0 and steps = ref 0 and created = ref 0 in
    let step () =
      let slot = !cursor mod churn_pool in
      incr cursor;
      incr steps;
      let name, di = slots.(slot) in
      let _, reference = docs.(di) in
      let answers_are r =
        let answers, constants, _ = Lazy.force reference in
        member_is "answers" (J.Int answers) r
        && member_is "constants" (J.Int constants) r
      in
      let mge = lazy (let _, _, m = Lazy.force reference in m) in
      let steps_now =
        [
          req "question" (P.op "question" ~session:name) answers_are;
          req "one_mge" (P.op "one_mge" ~session:name) (mge_is mge);
        ]
      in
      if !steps mod churn_close_every <> 0 then steps_now
      else begin
        let k = churn_pool + (!created mod (Array.length docs - churn_pool)) in
        let fresh = Printf.sprintf "c%d" (churn_pool + !created) in
        incr created;
        let rd, _ = docs.(k) in
        steps_now
        @ [
          req "close" (P.op "close" ~session:name)
            (member_is "closed" (J.Bool true));
          { (create_doc fresh rd) with
            after = (fun _ -> slots.(slot) <- (fresh, k)) };
        ]
      end
    in
    let agent () =
      let q = Queue.create () in
      fun () ->
        if Queue.is_empty q then List.iter (fun r -> Queue.push r q) (step ());
        Queue.pop q
    in
    {
      setup =
        Array.to_list
          (Array.mapi
             (fun k (name, _) ->
                let d, _ = docs.(k) in
                create_doc name d)
             slots);
      agents = [| agent (); agent () |];
    }
  in
  { name = "session-churn"; conns = 2; open_loop = false;
    count_requests = 1600; limit_us = 50_000.;
    prepare = (fun () -> Array.iter (fun (_, r) -> ignore (Lazy.force r)) docs);
    session }

(* --- alg1-exhaustive: Algorithm 1 on a 4-city document --- *)

(* The session runs Algorithm 1 on one domain. At two domains, on a
   2-vCPU host shared with other tenants, both domains meet at every
   stop-the-world collection, so the p50 followed the host's steal time
   (93 to 179 ms over five runs): too unsteady to gate. *)

let alg1_exhaustive ~seed =
  let d = P.cities_document ~relabel:seed ~shape:fixed_shape ~n_cities:4 () in
  let expected = lazy (P.ref_all_mges d (P.question d d.P.missing)) in
  let session () =
    let r =
      req "all_mges" (P.op "all_mges" ~session:"x0") (fun r ->
        match J.member "mges" r with
        | Some (J.List l) ->
          List.sort compare (List.filter_map strings l) = Lazy.force expected
        | _ -> false)
    in
    { setup = [ create_doc ~domains:1 "x0" d ]; agents = [| (fun () -> r) |] }
  in
  { name = "alg1-exhaustive"; conns = 1; open_loop = false; count_requests = 32;
    limit_us = 1_000_000.; prepare = (fun () -> ignore (Lazy.force expected));
    session }

let all = [ fig2_hot; scaled_open; session_churn; alg1_exhaustive ]

let names = [ "fig2-hot"; "scaled-open"; "session-churn"; "alg1-exhaustive" ]

let make name ~seed =
  match List.assoc_opt name (List.combine names all) with
  | Some f -> f ~seed
  | None -> failwith ("unknown workload " ^ name)
