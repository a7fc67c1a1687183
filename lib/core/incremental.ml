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

(* An attempt costs well under a microsecond, so the loops read the
   clock on their first attempt and then on every 64th. *)
let deadline_ticker h =
  let left = ref 0 in
  fun () ->
    if !left = 0 then begin
      left := 63;
      Subsume_memo.check_deadline h
    end
    else decr left

(* --- the absorption schedule, shared by both variants ---

   Position by position, the [i]-th active-domain constant for every [i]
   in the requested order, skipping those already in the position's
   extension: absorbing them cannot change anything. [absorb j i] grows
   position [j]'s support by that constant and, when the lub of the
   enlarged set may take position [j] of [f] (as {!Frontier.accepts}),
   puts it there and holds. Then the [top] refinement lifts single
   positions to [top], the most general concept of all, in order. *)

let schedule h f arity ~top ~order ~trace absorb =
  let adom = Subsume_memo.adom_array h in
  let n = Array.length adom in
  let tick = deadline_ticker h in
  let steps = ref [] in
  (* Counted here and added to the counters once per search. *)
  let attempts = ref 0 and absorbed = ref 0 in
  let count () =
    Obs.add c_absorb_attempts !attempts;
    Obs.add c_absorbed !absorbed
  in
  Fun.protect ~finally:count (fun () ->
      for j = 0 to arity - 1 do
        for k = 0 to n - 1 do
          let i = match order with `Ascending -> k | `Descending -> n - 1 - k in
          if not (Frontier.mem f j i) then begin
            tick ();
            incr attempts;
            let accepted = absorb j i in
            if accepted then begin
              incr absorbed;
              Log.debug (fun m ->
                  m "position %d absorbed %s" (j + 1)
                    (Value.to_string adom.(i)))
            end;
            if trace then steps := (j, adom.(i), accepted) :: !steps
          end
        done
      done);
  for j = 0 to arity - 1 do
    if Frontier.accepts f j top then Frontier.replace f j top
  done;
  List.rev !steps

(* --- CHECK-MGE's sweep, shared by both variants ---

   The tuple on [f] is most general iff no position can absorb a
   constant outside its extension, or take [top], while remaining an
   explanation. [absorbs j] is [None] at a position whose extension is
   infinite, which nothing improves, and otherwise the test whether the
   lub of its extension grown by the [i]-th active-domain constant may
   take position [j]. *)

let most_general h f arity ~top absorbs =
  let tick = deadline_ticker h in
  let n = Array.length (Subsume_memo.adom_array h) in
  let improvable j =
    match absorbs j with
    | None -> false
    | Some absorbs ->
      let rec from i =
        i < n
        && ((not (Frontier.mem f j i))
            && begin
              tick ();
              absorbs i
            end
            || from (i + 1))
      in
      from 0 || Frontier.accepts f j top
  in
  let rec any j = j < arity && (improvable j || any (j + 1)) in
  not (any 0)

(* --- selection-free (Lemma 5.1) ---

   A support set is its lub. A singleton [{x}] has the lub [{x}] meet
   the projections through [x] (those of [x]'s position mask); a larger
   set the meet of the projections in its mask, which one intersection
   grows. An id [i] is in the extension of a non-empty mask iff it is an
   active-domain constant whose position mask includes it. *)

type concept =
  | Nominal of Value.t * int * Bits.t  (* the value, its id, its mask *)
  | Mask of Bits.t  (* the empty mask is [top] *)

(* An absorb attempt on masks reads [m ∧ b], [b] the absorbed constant's
   position mask, through {!Lub.inter_covers} without building it, and
   builds its concept only when accepted. *)
let rec covers_none posmasks m b = function
  | [] -> true
  | d :: ds ->
    (not (Lub.inter_covers posmasks m b d)) && covers_none posmasks m b ds

(* [Frontier.accepts f j (Mask (m ∧ b))], [b] the position mask of the
   [i]-th active-domain constant: [m ∧ b] holds [a_j] and no member of
   [D_j]. *)
let grown_accepts posmasks q f j m i =
  let b = posmasks.(i) in
  Lub.inter_covers posmasks m b (Frontier.missing_id q j)
  && covers_none posmasks m b (Frontier.only f j)

let mask_absorb_accepts h q f j m i =
  grown_accepts (Subsume_memo.posmasks h) q f j m i

let width h = Array.length (Subsume_memo.positions h)

(* Id [i]'s position mask; [top] outside the active domain. *)
let posmask posmasks top i =
  if i >= 0 && i < Array.length posmasks then posmasks.(i) else top

let mask_search h q wn ~shorten ~order ~trace =
  let posmasks = Subsume_memo.posmasks h and top = Bits.empty (width h) in
  let arity = Whynot.arity wn in
  (* The nominal tuple: an explanation, since [a] is not an answer. *)
  let concepts =
    Array.init arity (fun j ->
        let i = Frontier.missing_id q j in
        let a = Tuple.get wn.Whynot.missing (j + 1) in
        Nominal (a, i, posmask posmasks top i))
  in
  let mem = function
    | Nominal (_, i, _) -> Int.equal i
    | Mask m -> Lub.covers h m
  in
  let f = Option.get (Frontier.of_array q mem concepts) in
  let absorb j i =
    let (Nominal (_, _, m) | Mask m) = Frontier.concept f j in
    grown_accepts posmasks q f j m i
    && begin
      Frontier.replace f j (Mask (Bits.inter m posmasks.(i)));
      true
    end
  in
  let steps = schedule h f arity ~top:(Mask top) ~order ~trace absorb in
  (* The masks become concepts once, and the shortening drops bits as
     {!Irredundant.minimise} drops conjuncts. *)
  let render = if shorten then Lub.shorten h else Lub.render h in
  let to_ls j =
    match Frontier.concept f j with
    | Nominal (x, _, m) -> render ~nominal:x m
    | Mask m -> render m
  in
  (List.init arity to_ls, steps)

(* CHECK-MGE on masks: each handed concept becomes its membership over
   ids and the mask of its extension's lub ([None] when the extension is
   infinite). [top], a nominal and a meet of projections are read off
   their ids and masks, with no extension fetched. *)
let mask_check h q e =
  let posmasks = Subsume_memo.posmasks h and top = Bits.empty (width h) in
  let posmask = posmask posmasks top in
  let id x = Option.value ~default:(-1) (Frontier.id q x) in
  (* The meet of the masks of the members [ids] (empty as soon as one
     member lies outside the active domain). *)
  let meet ids =
    let m = ref (Bits.full (width h)) in
    for i = 0 to Frontier.size q - 1 do
      if ids i then m := Bits.inter !m (posmask i)
    done;
    !m
  in
  let given c =
    match Ls.conjuncts c with
    | [] -> ((fun _ -> true), None)
    | [ Ls.Nominal x ] ->
      let i = id x in
      (Int.equal i, Some (posmask i))
    | _ -> (
      (* A support only grows, and a nominal grows as its mask does, so
         a projection meet's sole member needs no nominal here. *)
      match Lub.projection_mask h c with
      | Some m ->
        let ids = Lub.covers h m in
        (ids, Some (meet ids))
      | None -> (
        let ext = Subsume_memo.extension h c in
        let ids = Frontier.ext_mem q ext in
        match ext with
        | Semantics.All -> (ids, None)
        | Semantics.Fin s -> (
          (* A singleton's lub is its nominal, whose mask is its
             member's. *)
          match Value_set.elements s with
          | [ x ] -> (ids, Some (posmask (id x)))
          | _ -> (ids, Some (meet ids)))))
  in
  let given = Array.of_list (List.map given e) in
  match Frontier.of_array q Fun.id (Array.map fst given) with
  | None -> false
  | Some f ->
    most_general h f (Array.length given) ~top:(fun _ -> true) (fun j ->
        Option.map (grown_accepts posmasks q f j) (snd given.(j)))

(* --- with selections (Lemma 5.2) ---

   Support sets and memoised [lub_sigma] concepts over [O_I] itself,
   their memberships through the ids' values. *)

let sigma_mem h q =
  Frontier.through q
    (Ontology.of_instance ~handle:h (Subsume_memo.instance h)).Ontology.mem

let sigma_search h q wn ~shorten ~order ~trace =
  let arity = Whynot.arity wn in
  let support =
    Array.init arity (fun j ->
        Value_set.singleton (Tuple.get wn.Whynot.missing (j + 1)))
  in
  let concepts = Array.map (Lub.lub_sigma h) support in
  let f = Option.get (Frontier.of_array q (sigma_mem h q) concepts) in
  let adom = Subsume_memo.adom_array h in
  let absorb j i =
    let x = Value_set.add adom.(i) support.(j) in
    let c = Lub.lub_sigma h x in
    Frontier.accepts f j c
    && begin
      support.(j) <- x;
      Frontier.replace f j c;
      true
    end
  in
  let steps = schedule h f arity ~top:Ls.top ~order ~trace absorb in
  let to_ls j =
    let c = Frontier.concept f j in
    if shorten then Irredundant.minimise h c else c
  in
  (List.init arity to_ls, steps)

let sigma_check h q e =
  let concepts = Array.of_list e in
  match Frontier.of_array q (sigma_mem h q) concepts with
  | None -> false
  | Some f ->
    let adom = Subsume_memo.adom_array h in
    most_general h f (Array.length concepts) ~top:Ls.top (fun j ->
        match Subsume_memo.extension h concepts.(j) with
        | Semantics.All -> None
        | Semantics.Fin x ->
          Some
            (fun i ->
               Frontier.accepts f j
                 (Lub.lub_sigma h (Value_set.add adom.(i) x))))

(* --- runs ---

   A run owns one memo handle: the lubs, the [O_I] membership and
   subsumption verdicts, the [top] pass and the final shortening all go
   through it. Callers that keep a handle across runs (an engine) pass it
   in, with the question's ids over the encoding of its answers when
   they keep one; otherwise the run creates the handle and encodes the
   answers. *)

let handle_for ?handle wn =
  match handle with
  | Some h -> h
  | None -> Subsume_memo.inst wn.Whynot.instance

(* The question's ids: [ids] when given, once checked against the run's
   handle and question; otherwise encoded here. *)
let ids_for h ?ids wn =
  match ids with
  | Some q ->
    Frontier.check q ~handle:h wn;
    q
  | None -> Frontier.ids ~handle:h wn

let run ?handle ?ids ?(variant = Selection_free) ~shorten ~trace order wn =
  let h = handle_for ?handle wn in
  let q = ids_for h ?ids wn in
  match variant with
  | Selection_free -> mask_search h q wn ~shorten ~order ~trace
  | With_selections -> sigma_search h q wn ~shorten ~order ~trace

let one_mge_with_trace ?variant ?(order = `Ascending) wn =
  run ?variant ~shorten:false ~trace:true order wn

let one_mge ?handle ?ids ?variant ?(shorten = true) ?(order = `Ascending) wn =
  fst (run ?handle ?ids ?variant ~shorten ~trace:false order wn)

let check_mge ?handle ?ids ?(variant = Selection_free) wn e =
  let h = handle_for ?handle wn in
  let q = ids_for h ?ids wn in
  match variant with
  | Selection_free -> mask_check h q e
  | With_selections -> sigma_check h q e
