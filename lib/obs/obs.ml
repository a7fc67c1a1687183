(* One atomic cell per counter: everything runs on one domain, but
   connection systhreads may bump and register concurrently, and an
   atomic bump is never lost. *)

type counter = {
  name : string;
  mutable doc : string;
  cell : int Atomic.t;
}

type timer = {
  tname : string;
  mutable tdoc : string;
  ns : int Atomic.t;
  calls : int Atomic.t;
}

let counters : (string, counter) Hashtbl.t = Hashtbl.create 64
let timers : (string, timer) Hashtbl.t = Hashtbl.create 16

(* Registration can race when connection threads register names; lookups
   after registration are safe because the tables are only grown under
   this lock and never resized concurrently with a bump (bumps go through
   the counter value, not the table). *)
let registry_lock = Mutex.create ()

let counter ?(doc = "") name =
  Mutex.protect registry_lock (fun () ->
      match Hashtbl.find_opt counters name with
      | Some c ->
        if c.doc = "" && doc <> "" then c.doc <- doc;
        c
      | None ->
        let c = { name; doc; cell = Atomic.make 0 } in
        Hashtbl.add counters name c;
        c)

let incr c = Atomic.incr c.cell
let add c n = ignore (Atomic.fetch_and_add c.cell n)
let value c = Atomic.get c.cell

let timer ?(doc = "") name =
  Mutex.protect registry_lock (fun () ->
      match Hashtbl.find_opt timers name with
      | Some t ->
        if t.tdoc = "" && doc <> "" then t.tdoc <- doc;
        t
      | None ->
        let t = { tname = name; tdoc = doc; ns = Atomic.make 0; calls = Atomic.make 0 } in
        Hashtbl.add timers name t;
        t)

let now_s () = Unix.gettimeofday ()

let record t ~since =
  ignore
    (Atomic.fetch_and_add t.ns
       (int_of_float ((Unix.gettimeofday () -. since) *. 1e9)));
  Atomic.incr t.calls

let snapshot () =
  let counter_entries =
    Hashtbl.fold (fun name c acc -> (name, value c) :: acc) counters []
  in
  let timer_entries =
    Hashtbl.fold
      (fun name t acc ->
         (name ^ ".ns", Atomic.get t.ns)
         :: (name ^ ".calls", Atomic.get t.calls)
         :: acc)
      timers []
  in
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (counter_entries @ timer_entries)

let delta f =
  let before = snapshot () in
  let v = f () in
  let after = snapshot () in
  let diff =
    List.filter_map
      (fun (name, n) ->
         let n0 = Option.value ~default:0 (List.assoc_opt name before) in
         if n - n0 <> 0 then Some (name, n - n0) else None)
      after
  in
  (v, diff)

let pp ppf () =
  let docs =
    Hashtbl.fold (fun name c acc -> (name, c.doc) :: acc) counters []
    @ Hashtbl.fold (fun name t acc -> (name, t.tdoc) :: acc) timers []
  in
  let entries = List.filter (fun (_, n) -> n <> 0) (snapshot ()) in
  if entries = [] then Format.fprintf ppf "(no events recorded)@."
  else
    List.iter
      (fun (name, n) ->
         let doc =
           (* Exact name first (counters may themselves end in [.calls]);
              timer entries then fall back to their base name. *)
           match List.assoc_opt name docs with
           | Some d when d <> "" -> d
           | _ ->
             let base =
               match Filename.extension name with
               | ".ns" | ".calls" -> Filename.remove_extension name
               | _ -> name
             in
             Option.value ~default:"" (List.assoc_opt base docs)
         in
         if doc = "" then Format.fprintf ppf "%-44s %d@." name n
         else Format.fprintf ppf "%-44s %-12d %s@." name n doc)
      entries
