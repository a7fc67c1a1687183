(* The in-process replay. One pass, in a process of its own, runs the
   workload's set-up and counting-phase requests through the server's
   layers with no socket, in one of two modes:

   - [handlers] calls [Protocol.parse_request], [Handlers.handle] and
     [Protocol.ok_line], as the server does per request line;
   - [layers] calls the public functions the handlers call ([Registry],
     [Parser], [Whynot.Engine]) directly, one span each.

   Spans are kept in memory with a parent link and summed per name at
   the end. run.py combines the passes: the handlers' self time is the
   handler pass's [handlers.handle] minus the layer pass's spans for the
   same requests, and the tracing overhead is a traced handler pass
   minus an untraced one.

   Every pass ends with a probe: one session over a 4-city document that
   runs each operation once, so every layer has a span on every
   workload. *)

open Whynot_relational
module J = Whynot.Json
module Protocol = Whynot_server.Protocol
module Handlers = Whynot_server.Handlers
module Registry = Whynot_server.Registry
module Parser = Whynot_text.Parser
module Engine = Whynot.Engine

(* --- spans --- *)

type phase = Setup | Stream | Probe

let phase = ref Setup

type span = {
  name : string;
  parent : int;          (** index of the parent span, -1 for a root *)
  ph : phase;
  mutable t0 : float;
  mutable t1 : float;
}

let spans : span array ref = ref [||]
let n_spans = ref 0
let stack = ref []          (* open span indices, innermost first *)
let tracing = ref true

let push s =
  if !n_spans = Array.length !spans then
    spans := Array.append !spans (Array.make (max 1024 !n_spans) s);
  !spans.(!n_spans) <- s;
  incr n_spans;
  !n_spans - 1

let span name f =
  if not !tracing then f ()
  else begin
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let s = { name; parent; ph = !phase; t0 = 0.; t1 = 0. } in
    let i = push s in
    stack := i :: !stack;
    s.t0 <- Unix.gettimeofday ();
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- Unix.gettimeofday ();
        stack := List.tl !stack)
      f
  end

(* --- an in-process server state --- *)

let fresh_deps () =
  {
    Handlers.registry = Registry.create ~max_sessions:1024;
    domains_default = 1;
    domains_max = 16;
    default_deadline_ms = 10_000;
    max_deadline_ms = 60_000;
    debug_ops = false;
    started_at_s = Unix.gettimeofday ();
  }

let close_all deps =
  List.iter (Handlers.close_session ~swept:false)
    (Registry.drain deps.Handlers.registry)

(* --- the handler pass --- *)

let via_handlers deps line =
  span "request" (fun () ->
    match span "protocol.parse" (fun () -> Protocol.parse_request line) with
    | Error m -> failwith ("replay: unparsable request: " ^ m)
    | Ok req ->
      let res =
        span ("handlers.handle." ^ req.Protocol.op) (fun () ->
          Handlers.handle deps req)
      in
      (match res with
       | Ok j -> ignore (span "protocol.encode" (fun () -> Protocol.ok_line req j))
       | Error _ -> ());
      res)

(* --- the layer pass: what each handler calls, one span per call --- *)

let ok_or_fail what = function
  | Ok v -> v
  | Error e -> failwith ("replay: " ^ what ^ ": " ^ Whynot_error.message e)

let workload_copy inst =
  (* The server copies a built-in workload instance per session. *)
  Instance.fold (fun n r acc -> Instance.add_relation n r acc) inst
    Instance.empty

let via_layers deps line =
  let req =
    match Protocol.parse_request line with
    | Ok r -> r
    | Error m -> failwith ("replay: unparsable request: " ^ m)
  in
  let name = Option.value ~default:"" req.Protocol.session in
  let find () =
    match span "registry.find" (fun () -> Registry.find deps.Handlers.registry name) with
    | Some s -> s
    | None -> failwith ("replay: no session " ^ name)
  in
  let question (s : Registry.session) =
    let missing =
      match Protocol.list_param req "missing" with
      | Some js -> ok_or_fail "missing" (Result.map_error (fun m -> `Missing_input m) (Protocol.values_of_json js))
      | None -> Option.get s.Registry.default_missing
    in
    ok_or_fail "question"
      (span "engine.question" (fun () ->
         Engine.question s.Registry.engine ~query:(Option.get s.Registry.query)
           ~missing ()))
  in
  span "request" (fun () ->
    match req.Protocol.op with
    | "create" ->
      let domains = Option.value ~default:1 (Protocol.int_param req "domains") in
      let schema, instance, query, missing, doc =
        match Protocol.str_param req "workload" with
        | Some _ ->
          let module C = Whynot_workload.Cities in
          let doc = { (Result.get_ok (Parser.parse "")) with
                      Parser.relations = Schema.relations C.schema } in
          (C.schema, workload_copy C.instance, Some C.two_hop_query,
           Some C.missing_tuple, doc)
        | None ->
          let text = Option.get (Protocol.str_param req "document") in
          let doc, schema, instance =
            span "parser.parse" (fun () ->
              let doc = ok_or_fail "parse" (Parser.parse text) in
              let schema = ok_or_fail "schema" (Parser.schema_of doc) in
              (doc, schema, Parser.instance_of doc))
          in
          (schema, instance, Option.map snd doc.Parser.query,
           doc.Parser.whynot_tuple, doc)
      in
      let engine =
        ok_or_fail "create"
          (span "engine.create" (fun () -> Engine.create ~schema ~domains ~instance ()))
      in
      let now = Unix.gettimeofday () in
      let session =
        { Registry.name; doc; schema; engine; query; default_missing = missing;
          source = Registry.Inline; created_at_s = now; lock = Mutex.create ();
          last_used_s = now }
      in
      (match span "registry.add" (fun () -> Registry.add deps.Handlers.registry session) with
       | Ok () -> ()
       | Error _ -> failwith "replay: registry.add failed");
      J.Obj [ ("session", J.String name) ]
    | "question" ->
      ignore (question (find ()));
      J.Obj []
    | "one_mge" ->
      let s = find () in
      let wn = question s in
      let e =
        ok_or_fail "one_mge"
          (span "engine.one_mge" (fun () -> Engine.one_mge s.Registry.engine wn))
      in
      (* scaled-open sends this explanation on to check_mge. *)
      J.Obj
        [ ("mge", J.List (List.map (fun c -> J.String c) (Plan.render s.Registry.schema e))) ]
    | "check_mge" ->
      let s = find () in
      let wn = question s in
      let srcs =
        List.filter_map J.to_string_opt
          (Option.value ~default:[] (Protocol.list_param req "explanation"))
      in
      (* The recorded implicit-view defect makes some of these fail to
         parse, exactly as on the wire; such requests stop here. *)
      (match
         span "parser.concept" (fun () ->
           List.fold_left
             (fun acc src ->
                match acc with
                | Error _ -> acc
                | Ok l -> (
                  match Parser.concept_of_string s.Registry.doc src with
                  | Ok c -> Ok (c :: l)
                  | Error e -> Error e))
             (Ok []) srcs)
       with
       | Error _ -> J.Null
       | Ok rev ->
         let ok =
           ok_or_fail "check_mge"
             (span "engine.check_mge" (fun () ->
                Engine.check_mge s.Registry.engine wn (List.rev rev)))
         in
         J.Obj [ ("is_mge", J.Bool ok) ])
    | "all_mges" ->
      let s = find () in
      let wn = question s in
      ignore
        (ok_or_fail "all_mges"
           (span "engine.all_mges" (fun () -> Engine.all_mges s.Registry.engine wn)));
      J.Obj []
    | "close" ->
      (match span "registry.remove" (fun () -> Registry.remove deps.Handlers.registry name) with
       | Some s ->
         ignore (span "engine.close" (fun () -> Engine.close s.Registry.engine));
         J.Obj [ ("closed", J.Bool true) ]
       | None -> failwith ("replay: no session " ^ name))
    | op -> failwith ("replay: unexpected op " ^ op))

(* --- passes --- *)

let probe_requests ~seed =
  let d = Plan.cities_document ~relabel:seed ~shape:Workloads.fixed_shape ~n_cities:4 () in
  let op name ?explanation () =
    Plan.op name ~session:"probe" ~missing:d.Plan.missing ?explanation
  in
  (* The check_mge line needs the one_mge reply: built on demand. *)
  [ (fun _ -> Plan.create_document ~session:"probe" d);
    (fun _ -> op "question" ());
    (fun _ -> op "one_mge" ());
    (fun last ->
       let e = Option.value ~default:[] (Option.bind (J.member "mge" last) Wire.strings) in
       op "check_mge" ~explanation:e ());
    (fun _ -> op "all_mges" ());
    (fun _ -> op "close" ()) ]

(* One pass: set-up, [n] stream requests, the probe. Returns the time
   spent in the stream's requests.

   After each stream request the pass sleeps [pause_s], the time the
   server's connection thread spends between requests on the wire. The
   server handles each request after waking from a socket read, with
   caches that other processes on the host may have cooled meanwhile; a
   pass that ran its requests back to back measured the same handlers
   up to 40% faster than the server's own op timers. *)
(* The calibrations of [Wire.calibrate] run between the stream's
   requests: the host's speed while this pass ran. *)
let calib = Wire.tally ()

let pass ~via ~seed ~n ~pause_s (w : Workloads.t) =
  let deps = fresh_deps () in
  let sess = w.Workloads.session () in
  let feed (r : Wire.request) =
    match via deps r.Wire.line with Some j -> r.Wire.after j | None -> ()
  in
  phase := Setup;
  List.iter feed sess.Workloads.setup;
  phase := Stream;
  let next = sess.Workloads.agents.(0) in
  let busy = ref 0. and next_calib = ref 0. in
  for _ = 1 to n do
    let r = next () in
    let t0 = Unix.gettimeofday () in
    feed r;
    let t1 = Unix.gettimeofday () in
    busy := !busy +. (t1 -. t0);
    if t1 >= !next_calib then begin
      Wire.calibrate calib;
      next_calib := t1 +. Wire.calib_every
    end;
    Unix.sleepf pause_s
  done;
  let stream_s = !busy in
  phase := Probe;
  ignore
    (List.fold_left
       (fun last mk -> Option.value ~default:J.Null (via deps (mk last)))
       J.Null (probe_requests ~seed));
  close_all deps;
  stream_s

let handlers_via deps line =
  match via_handlers deps line with Ok j -> Some j | Error _ -> None

let layers_via deps line =
  match via_layers deps line with J.Null -> None | j -> Some j

(* --- summary --- *)

let dur s = (s.t1 -. s.t0) *. 1e6

(* Per-name calls and total microseconds over the spans [keep] selects. *)
let totals ~keep =
  let tbl = Hashtbl.create 32 in
  for i = 0 to !n_spans - 1 do
    let s = !spans.(i) in
    if keep s then begin
      let c, t = Option.value ~default:(0, 0.) (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (c + 1, t +. dur s)
    end
  done;
  J.Obj
    (Hashtbl.fold
       (fun k (c, t) acc ->
          (k, J.Obj [ ("calls", J.Int c); ("us", J.Float t) ]) :: acc)
       tbl [])

(* One pass in a fresh process, so that it starts from the state a
   freshly started server has: [handlers] or [layers], traced or not. *)
let run ~seed ~(w : Workloads.t) ~mode ~traced ~pause_s =
  tracing := traced;
  let via = if mode = "layers" then layers_via else handlers_via in
  let n = w.Workloads.count_requests in
  let stream_s = pass ~via ~seed ~n ~pause_s w in
  (* The spans directly under a stream request: for the layer pass, the
     calls the handlers make. *)
  let children = ref 0. in
  for i = 0 to !n_spans - 1 do
    let s = !spans.(i) in
    if s.ph = Stream && s.parent >= 0 && !spans.(s.parent).parent = -1 then
      children := !children +. dur s
  done;
  J.Obj
    [
      ("mode", J.String mode);
      ("traced", J.Bool traced);
      ("requests", J.Int n);
      ("stream_us", J.Float (stream_s *. 1e6));
      ("children_us", J.Float !children);
      ("kernel_us", J.Float (Wire.kernel_median calib.Wire.marks));
      ("stream", totals ~keep:(fun s -> s.ph = Stream));
      ("all", totals ~keep:(fun _ -> true));
    ]
