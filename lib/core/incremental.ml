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

(* --- the lubs of one variant ---

   Algorithm 2 and CHECK-MGE only need, per variant, a support set [{a}]
   with its lub, an absorb attempt that grows a support set [X] by one
   active-domain constant and keeps [lub (X ∪ {b})] only when it may
   replace a position's concept, and the membership [mem c i] over the
   question's ids on which the frontier runs. *)

type ('s, 'c) lubs = {
  mem : 'c -> int -> bool;
  nominal : Value.t -> int -> 's * 'c;
      (* the support [{a}], [a] of that id, and its lub *)
  absorb : 'c Frontier.t -> int -> 's -> int -> Value.t -> ('s * 'c) option;
      (* [absorb f j x i b]: [X ∪ {b}] and its lub, [b] the [i]-th
         active-domain constant, when that lub may take position [j] of
         [f] (as {!Frontier.accepts}); [None] otherwise *)
  given : Ls.t -> 'c;  (* a concept CHECK-MGE is handed *)
  support : 'c -> 's option;
      (* a given concept's extension as a support set; [None] when it is
         infinite *)
  top : 'c;
  top_support : 's;  (* fills a support array before its first set *)
  render : shorten:bool -> 'c -> Ls.t;
}

(* With selections: support sets and memoised [lub_sigma] concepts over
   [O_I] itself, their memberships through the ids' values. *)
let sigma_lubs h q =
  let o = Ontology.of_instance ~handle:h (Subsume_memo.instance h) in
  {
    mem = Frontier.through q o.Ontology.mem;
    nominal =
      (fun a _ ->
         let x = Value_set.singleton a in
         (x, Lub.lub_sigma h x));
    absorb =
      (fun f j x _ b ->
         let x' = Value_set.add b x in
         let c' = Lub.lub_sigma h x' in
         if Frontier.accepts f j c' then Some (x', c') else None);
    given = Subsume_memo.canonical h;
    support =
      (fun c ->
         match Subsume_memo.extension h c with
         | Semantics.All -> None
         | Semantics.Fin ext -> Some ext);
    top = Ls.top;
    top_support = Value_set.empty;
    render =
      (fun ~shorten c -> if shorten then Irredundant.minimise h c else c);
  }

(* Selection-free (Lemma 5.1): a support set is its lub. A singleton
   [{x}] has the lub [{x}] meet the projections through [x] (those of
   [x]'s position mask); a larger set the meet of the projections in its
   mask, which one intersection grows. An id [i] is in the extension of
   a non-empty mask iff it is an active-domain constant whose position
   mask includes it. *)
type concept =
  | Given of Ls.t * (int -> bool) * concept option
      (* a handed concept, its membership, the lub of its extension *)
  | Nominal of Value.t * int * Bits.t  (* the value, its id, its mask *)
  | Mask of Bits.t  (* the empty mask is [top] *)

(* An absorb attempt on masks reads [m ∧ b], [b] the absorbed constant's
   position mask, through {!Lub.inter_covers} without building it, and
   builds its concept only when accepted. *)
let rec covers_none posmasks m b = function
  | [] -> true
  | d :: ds ->
    (not (Lub.inter_covers posmasks m b d)) && covers_none posmasks m b ds

(* [Frontier.accepts f j (Mask (m ∧ b))], with [a_j] the id of the
   missing value at [j]. *)
let grown_accepts posmasks f j a_j m b =
  Lub.inter_covers posmasks m b a_j
  && covers_none posmasks m b (Frontier.only f j)

let mask_absorb_accepts h q f j m i =
  let posmasks = Subsume_memo.posmasks h in
  grown_accepts posmasks f j (Frontier.missing_id q j) m posmasks.(i)

let mask_lubs h q =
  let posmasks = Subsume_memo.posmasks h in
  let n = Array.length posmasks in
  let width = Array.length (Subsume_memo.positions h) in
  let top = Bits.empty width in
  let posmask i = if i >= 0 && i < n then posmasks.(i) else top in
  let nominal a i = Nominal (a, i, posmask i) in
  let to_ls ~shorten = function
    | Given (c, _, _) -> if shorten then Irredundant.minimise h c else c
    | Nominal (x, _, m) ->
      (if shorten then Lub.shorten else Lub.render) h ~nominal:x m
    | Mask m -> (if shorten then Lub.shorten else Lub.render) h m
  in
  (* The meet of the masks of the members [ids] (empty as soon as one
     member lies outside the active domain). *)
  let meet ids =
    let m = ref (Bits.full width) in
    for i = 0 to Frontier.size q - 1 do
      if ids i then m := Bits.inter !m (posmask i)
    done;
    Mask !m
  in
  (* A finite extension's lub, from its ids: the nominal of a singleton,
     otherwise the meet of its members' masks. *)
  let lub_of ext ids =
    match Value_set.elements ext with
    | [ x ] -> nominal x (Option.value ~default:(-1) (Frontier.id q x))
    | _ -> meet ids
  in
  (* A given concept through its memoised extension. *)
  let given_ext c =
    let ext = Subsume_memo.extension h c in
    let ids = Frontier.ext_mem q ext in
    match ext with
    | Semantics.All -> Given (c, ids, None)
    | Semantics.Fin s -> Given (c, ids, Some (lub_of s ids))
  in
  {
    mem =
      (function
        | Given (_, m, _) -> m
        | Nominal (_, x, _) -> Int.equal x
        | Mask m -> Lub.covers h m);
    nominal =
      (fun a i ->
         let c = nominal a i in
         (c, c));
    absorb =
      (fun f j x i _ ->
         match x with
         | Nominal (_, _, m) | Mask m ->
           let b = posmasks.(i) in
           if grown_accepts posmasks f j (Frontier.missing_id q j) m b then
             let c = Mask (Bits.inter m b) in
             Some (c, c)
           else None
         | Given _ -> invalid_arg "Incremental: a given concept is no lub");
    (* [top], a nominal and a meet of projections are read off their ids
       and masks, with no extension fetched. *)
    given =
      (fun c ->
         match Ls.conjuncts c with
         | [] -> Given (c, (fun _ -> true), None)
         | [ Ls.Nominal x ] ->
           let i = Option.value ~default:(-1) (Frontier.id q x) in
           Given (c, Int.equal i, Some (nominal x i))
         | _ ->
           (* A support only grows, and a nominal grows as its mask
              does, so a projection meet's sole member needs no nominal
              here. *)
           (match Lub.projection_mask h c with
            | Some m ->
              let ids = Lub.covers h m in
              Given (c, ids, Some (meet ids))
            | None -> given_ext (Subsume_memo.canonical h c)));
    support = (function Given (_, _, s) -> s | c -> Some c);
    top = Mask top;
    top_support = Mask top;
    render = to_ls;
  }

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

(* --- one run of Algorithm 2 ---

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

let search l h q wn order ~trace =
  let missing = wn.Whynot.missing in
  let arity = Tuple.arity missing in
  (* The nominal tuple: an explanation, since [a] is not an answer. *)
  let support = Array.make arity l.top_support in
  let concepts = Array.make arity l.top in
  for j = 0 to arity - 1 do
    let x, c =
      l.nominal (Tuple.get missing (j + 1)) (Frontier.missing_id q j)
    in
    support.(j) <- x;
    concepts.(j) <- c
  done;
  let f = Option.get (Frontier.of_array q l.mem concepts) in
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
  (try
     for j = 0 to arity - 1 do
       (* The absorption schedule: the [i]-th active-domain constant, for
          every [i] in the requested order. *)
       for k = 0 to n - 1 do
         let i = match order with `Ascending -> k | `Descending -> n - 1 - k in
         (* Skip constants already in the position's extension: absorbing
            them cannot change anything. *)
         if not (Frontier.mem f j i) then begin
           tick ();
           incr attempts;
           let b = adom.(i) in
           let accepted =
             match l.absorb f j support.(j) i b with
             | None -> false
             | Some (x', c') ->
               incr absorbed;
               Log.debug (fun m ->
                   m "position %d absorbed %s" (j + 1) (Value.to_string b));
               support.(j) <- x';
               Frontier.replace f j c';
               true
           in
           if trace then steps := (j, b, accepted) :: !steps
         end
       done
     done
   with e ->
     count ();
     raise e);
  count ();
  (* The [top] refinement: lift single positions to [top], the most
     general concept of all, in order. *)
  for j = 0 to arity - 1 do
    if Frontier.accepts f j l.top then Frontier.replace f j l.top
  done;
  (f, List.rev !steps)

(* The explanation of a finished search, rendered position by position
   (no list of concepts built to be mapped over). *)
let rendered l ~shorten f arity =
  let rec from j acc =
    if j < 0 then acc
    else from (j - 1) (l.render ~shorten (Frontier.concept f j) :: acc)
  in
  from (arity - 1) []

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
  let go l =
    let f, steps = search l h q wn order ~trace in
    (rendered l ~shorten f (Whynot.arity wn), steps)
  in
  match variant with
  | Selection_free -> go (mask_lubs h q)
  | With_selections -> go (sigma_lubs h q)

let one_mge_with_trace ?variant ?(order = `Ascending) wn =
  run ?variant ~shorten:false ~trace:true order wn

let one_mge ?handle ?ids ?variant ?(shorten = true) ?(order = `Ascending) wn =
  fst (run ?handle ?ids ?variant ~shorten ~trace:false order wn)

(* A position is improvable when the lub of its concept's extension
   grown by a constant outside it, or [top], keeps the tuple an
   explanation. *)
let is_mge l h q e =
  let arity = List.length e in
  let concepts = Array.make arity l.top in
  List.iteri (fun j c -> concepts.(j) <- l.given c) e;
  match Frontier.of_array q l.mem concepts with
  | None -> false
  | Some f ->
    let tick = deadline_ticker h and adom = Subsume_memo.adom_array h in
    let improvable j =
      match l.support (Frontier.concept f j) with
      | None -> false (* already top *)
      | Some x ->
        let rec absorbs i =
          i < Array.length adom
          && ((not (Frontier.mem f j i))
              && begin
                tick ();
                Option.is_some (l.absorb f j x i adom.(i))
              end
              || absorbs (i + 1))
        in
        absorbs 0 || Frontier.accepts f j l.top
    in
    let rec any j = j < arity && (improvable j || any (j + 1)) in
    not (any 0)

let check_mge ?handle ?ids ?(variant = Selection_free) wn e =
  let h = handle_for ?handle wn in
  let q = ids_for h ?ids wn in
  match variant with
  | Selection_free -> is_mge (mask_lubs h q) h q e
  | With_selections -> is_mge (sigma_lubs h q) h q e
