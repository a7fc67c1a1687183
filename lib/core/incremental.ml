open Whynot_relational
open Whynot_concept

let src = Logs.Src.create "whynot.incremental" ~doc:"Algorithm 2"

module Log = (val Logs.src_log src : Logs.LOG)
module Obs = Whynot_obs.Obs

let c_absorb_attempts =
  Obs.counter "mge.incremental.absorb_attempts"
    ~doc:"Algorithm 2 candidate (position, constant) absorptions tried"

let c_absorbed =
  Obs.counter "mge.incremental.absorbed"
    ~doc:"Algorithm 2 absorptions that kept the explanation valid"

type variant =
  | Selection_free
  | With_selections

let trivial_explanation wn =
  List.map Ls.nominal (Whynot.missing_values wn)

module Frontier = Explanation.Frontier

(* The [top] refinement: try to lift single positions to [top] (most general
   of all concepts), in order. *)
let try_top f =
  List.iteri
    (fun j _ -> if Frontier.accepts f j Ls.top then Frontier.replace f j Ls.top)
    (Frontier.concepts f)

(* --- one run of Algorithm 2 ---

   A run owns one memo handle: the lubs, the [O_I] membership and
   subsumption verdicts, the [top] pass and the final shortening all go
   through it. Callers that keep a handle across runs (an engine) pass it
   in; otherwise the run creates one. *)

type ctx = {
  variant : variant;
  wn : Whynot.t;
  handle : Subsume_memo.inst;
  ontology : Ls.t Ontology.t;
}

let make_ctx ?handle ?(variant = Selection_free) wn =
  let inst = wn.Whynot.instance in
  let handle =
    match handle with Some h -> h | None -> Subsume_memo.inst inst
  in
  { variant; wn; handle; ontology = Ontology.of_instance ~handle inst }

let lub ctx x =
  match ctx.variant with
  | Selection_free -> Lub.lub ctx.handle x
  | With_selections -> Lub.lub_sigma ctx.handle x

(* The absorption schedule: position by position, every active-domain
   constant in the requested order. The active domain is the handle's,
   computed once per handle. *)
let iter_adom ctx order k =
  let adom = Subsume_memo.adom ctx.handle in
  match order with
  | `Ascending -> Value_set.iter k adom
  | `Descending -> Seq.iter k (Value_set.to_rev_seq adom)

let search ctx order =
  let support =
    Array.of_list (List.map Value_set.singleton (Whynot.missing_values ctx.wn))
  in
  (* The nominal tuple: an explanation, since [a] is not an answer. *)
  let f =
    Option.get
      (Frontier.make ctx.ontology ctx.wn
         (Array.to_list (Array.map (lub ctx) support)))
  in
  let trace = ref [] in
  for j = 0 to Whynot.arity ctx.wn - 1 do
    iter_adom ctx order (fun b ->
        (* Skip constants already in the position's extension: absorbing
           them cannot change anything. *)
        if not (Frontier.mem f j b) then begin
          Obs.incr c_absorb_attempts;
          let x' = Value_set.add b support.(j) in
          let c' = lub ctx x' in
          let accepted = Frontier.accepts f j c' in
          if accepted then begin
            Obs.incr c_absorbed;
            Log.debug (fun m ->
                m "position %d absorbed %s" (j + 1) (Value.to_string b));
            support.(j) <- x';
            Frontier.replace f j c'
          end;
          trace := (j, b, accepted) :: !trace
        end)
  done;
  try_top f;
  (Frontier.concepts f, List.rev !trace)

let one_mge_with_trace ?variant ?(order = `Ascending) wn =
  search (make_ctx ?variant wn) order

let one_mge ?handle ?variant ?(shorten = true) ?(order = `Ascending) wn =
  let ctx = make_ctx ?handle ?variant wn in
  let e, _ = search ctx order in
  if shorten then List.map (Irredundant.minimise ctx.handle) e else e

let check_mge ?handle ?variant wn e =
  let ctx = make_ctx ?handle ?variant wn in
  (* Concepts parsed off the wire are fresh values. *)
  let e = List.map (Subsume_memo.canonical ctx.handle) e in
  match Frontier.make ctx.ontology wn e with
  | None -> false
  | Some f ->
    let adom = Subsume_memo.adom ctx.handle in
    let improvable j c =
      match Subsume_memo.extension ctx.handle c with
      | Semantics.All -> false (* already top *)
      | Semantics.Fin ext ->
        (* (a) absorb a further active-domain constant *)
        Seq.exists
          (fun b ->
             (not (Value_set.mem b ext))
             && Frontier.accepts f j (lub ctx (Value_set.add b ext)))
          (Value_set.to_seq adom)
        (* (b) jump to top *)
        || Frontier.accepts f j Ls.top
    in
    not (List.exists (fun (j, c) -> improvable j c)
           (List.mapi (fun j c -> (j, c)) e))
