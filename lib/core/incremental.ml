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

   Algorithm 2 and CHECK-MGE only need, per variant, a way to grow a
   support set [X] by one active-domain constant, the concept [lub X],
   and the membership [mem c v] over which the frontier runs. *)

type ('s, 'c) lubs = {
  mem : 'c -> Value.t -> bool;
  support : Value_set.t -> 's;  (* the support set [X] *)
  grow : 's -> int -> Value.t -> 's;
      (* [X ∪ {b}], [b] the [i]-th active-domain constant *)
  lub : 's -> 'c;
  given : Ls.t -> 'c;  (* a concept CHECK-MGE is handed *)
  top : 'c;
  render : shorten:bool -> 'c -> Ls.t;
}

(* With selections: support sets and memoised [lub_sigma] concepts over
   [O_I] itself. *)
let sigma_lubs h inst =
  {
    mem = (Ontology.of_instance ~handle:h inst).Ontology.mem;
    support = Fun.id;
    grow = (fun x _ b -> Value_set.add b x);
    lub = Lub.lub_sigma h;
    given = Fun.id;
    top = Ls.top;
    render =
      (fun ~shorten c -> if shorten then Irredundant.minimise h c else c);
  }

(* Selection-free (Lemma 5.1): a support set is its lub. A singleton
   [{x}] has the lub [{x}] meet the projections through [x] (those of
   [x]'s position mask); a larger set the meet of the projections in its
   mask, which one intersection grows. *)
type concept =
  | Given of Ls.t
  | Nominal of Value.t * Bits.t
  | Mask of Bits.t  (* the empty mask is [top] *)

let mask_lubs h inst =
  let posmasks = Subsume_memo.posmasks h in
  let to_ls ~shorten = function
    | Given c -> if shorten then Irredundant.minimise h c else c
    | Nominal (x, m) ->
      (if shorten then Lub.shorten else Lub.render) h ~nominal:x m
    | Mask m -> (if shorten then Lub.shorten else Lub.render) h m
  in
  let mem = (Ontology.of_instance ~handle:h inst).Ontology.mem in
  {
    mem =
      (function
        | Given c -> mem c
        | Nominal (x, _) -> Value.equal x
        | Mask m -> Lub.covers h m);
    support =
      (fun x ->
         let m = Lub.mask h x in
         if Value_set.cardinal x = 1 then Nominal (Value_set.choose x, m)
         else Mask m);
    grow =
      (fun c i _ ->
         match c with
         | Nominal (_, m) | Mask m -> Mask (Bits.inter m posmasks.(i))
         | Given _ -> invalid_arg "Incremental: a given concept is no lub");
    lub = Fun.id;
    given = (fun c -> Given c);
    top = Mask (Bits.empty (Array.length (Subsume_memo.positions h)));
    render = to_ls;
  }

(* The absorption schedule: the [i]-th active-domain constant, for
   every [i] in the requested order. *)
let iter_adom h order k =
  let adom = Subsume_memo.adom_array h in
  match order with
  | `Ascending -> Array.iteri k adom
  | `Descending ->
    for i = Array.length adom - 1 downto 0 do k i adom.(i) done

(* --- one run of Algorithm 2 ---

   A run owns one memo handle: the lubs, the [O_I] membership and
   subsumption verdicts, the [top] pass and the final shortening all go
   through it. Callers that keep a handle across runs (an engine) pass it
   in; otherwise the run creates one. *)

let handle_for ?handle wn =
  match handle with
  | Some h -> h
  | None -> Subsume_memo.inst wn.Whynot.instance

let search l h wn order =
  let support =
    Array.of_list
      (List.map
         (fun a -> l.support (Value_set.singleton a))
         (Whynot.missing_values wn))
  in
  (* The nominal tuple: an explanation, since [a] is not an answer. *)
  let f =
    Option.get
      (Frontier.make l.mem wn (Array.to_list (Array.map l.lub support)))
  in
  let trace = ref [] in
  for j = 0 to Whynot.arity wn - 1 do
    iter_adom h order
      (fun i b ->
         (* Skip constants already in the position's extension: absorbing
            them cannot change anything. *)
         if not (Frontier.mem f j b) then begin
           Subsume_memo.check_deadline h;
           Obs.incr c_absorb_attempts;
           let x' = l.grow support.(j) i b in
           let c' = l.lub x' in
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
  (* The [top] refinement: lift single positions to [top], the most
     general concept of all, in order. *)
  for j = 0 to Whynot.arity wn - 1 do
    if Frontier.accepts f j l.top then Frontier.replace f j l.top
  done;
  (Frontier.concepts f, List.rev !trace)

let run ?handle ?(variant = Selection_free) ~shorten order wn =
  let h = handle_for ?handle wn in
  let go l =
    let e, trace = search l h wn order in
    (List.map (l.render ~shorten) e, trace)
  in
  match variant with
  | Selection_free -> go (mask_lubs h wn.Whynot.instance)
  | With_selections -> go (sigma_lubs h wn.Whynot.instance)

let one_mge_with_trace ?variant ?(order = `Ascending) wn =
  run ?variant ~shorten:false order wn

let one_mge ?handle ?variant ?(shorten = true) ?(order = `Ascending) wn =
  fst (run ?handle ?variant ~shorten order wn)

(* A position is improvable when its lub grown by a constant outside its
   extension, or [top], keeps the tuple an explanation. *)
let is_mge l h wn e =
  (* Concepts parsed off the wire are fresh values. *)
  let e = List.map (Subsume_memo.canonical h) e in
  match Frontier.make l.mem wn (List.map l.given e) with
  | None -> false
  | Some f ->
    let improvable j c =
      match Subsume_memo.extension h c with
      | Semantics.All -> false (* already top *)
      | Semantics.Fin ext ->
        let x = l.support ext and adom = Subsume_memo.adom_array h in
        let rec absorbs i =
          i < Array.length adom
          && ((not (Value_set.mem adom.(i) ext))
              && begin
                Subsume_memo.check_deadline h;
                Frontier.accepts f j (l.lub (l.grow x i adom.(i)))
              end
              || absorbs (i + 1))
        in
        absorbs 0 || Frontier.accepts f j l.top
    in
    let rec any j = function
      | [] -> false
      | c :: rest -> improvable j c || any (j + 1) rest
    in
    not (any 0 e)

let check_mge ?handle ?(variant = Selection_free) wn e =
  let h = handle_for ?handle wn in
  match variant with
  | Selection_free -> is_mge (mask_lubs h wn.Whynot.instance) h wn e
  | With_selections -> is_mge (sigma_lubs h wn.Whynot.instance) h wn e
