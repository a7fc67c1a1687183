(* wbench: the compiled half of the benchmark.

     wbench setup  --server EXE --workload W --seed N --seconds S
                   [-- SERVER-FLAGS]
     wbench wire   --server EXE --workload W --seed N --seconds S
                   --repeat 0|1 [-- SERVER-FLAGS]
     wbench replay --workload W --seed N --seconds S
                   --mode handlers|layers --traced 0|1 --pause-us P

   [setup] sets up fresh servers several times and prints the times.
   [wire] spawns the server, sets it up, warms it with a sequential
   counting phase, measures one phase of load and prints one JSON
   object. [replay] runs one pass of the counting phase's requests
   in-process (see replay.ml) and prints its span totals.
   perfbench/run.py drives all three and derives the reported metrics. *)

module J = Whynot.Json
open Wire

(* Set-up is timed this many times per run (fresh servers), on one CPU
   (run.py); run.py reports the mean of the fastest eighth. *)
let setups = 41

(* The rate and latency percentiles of a load phase are medians over
   windows of it, each [window_s] long, or longer where that keeps
   enough passing replies in it: 10 for the rate and p50, 1000 for p99.
   A burst of interference from outside the benchmark then moves a few
   windows, not the result. *)
let window_s = 0.25

let windows_for ~per ~secs replies =
  max 1 (min (int_of_float (secs /. window_s)) (replies / per))

(* The kernel time of [Wire.calibrate] that the _ref_ figures are scaled
   to. server_cpu_ref_us is the median over stretches of the measured
   phase of the server's CPU time per reply times kernel_ref_us over the
   kernel's median time in the stretch ([Wire.cpu_per_reply]);
   latency_p50_ref_us, the median over windows of each window's p50
   scaled the same way. They read in
   microseconds of a host on which the kernel takes 300 us, about its
   time on the baseline's host (NOTES.md). A slower stretch of the host
   lengthens the requests and the kernel alike, so the ratio stays; a
   change to the server's own cost moves the requests alone. *)
let kernel_ref_us = 300.

(* server_cpu_ref_us is the median of [Wire.cpu_per_reply] over
   stretches of this many seconds: a burst of interference from other
   tenants moves one stretch, not the result. *)
let cpu_segment_s = 1.0

let fnum x = if Float.is_nan x then J.Null else J.Float x

let windowed t ~t0 ~t1 =
  let stat ~per f =
    let ws = windows t ~t0 ~t1 ~k:(windows_for ~per ~secs:(t1 -. t0) t.ok) in
    (* A window without replies or calibrations has no value: leave it
       out. *)
    let a =
      Array.map f ws |> Array.to_list
      |> List.filter (fun x -> not (Float.is_nan x))
      |> Array.of_list
    in
    Array.sort compare a;
    let k = Array.length a in
    if k = 0 then J.Null else fnum ((a.((k - 1) / 2) +. a.(k / 2)) /. 2.)
  in
  J.Obj
    [
      ("throughput_rps", stat ~per:10 (fun (x, _, _, _, _) -> x));
      ("p50", stat ~per:10 (fun (_, x, _, _, _) -> x));
      ("p90", stat ~per:10 (fun (_, _, x, _, _) -> x));
      ("p99", stat ~per:1000 (fun (_, _, _, x, _) -> x));
      ("p50_ref", stat ~per:10 (fun (_, x, _, _, k) -> x *. kernel_ref_us /. k));
      ("kernel_us", stat ~per:10 (fun (_, _, _, _, k) -> k));
    ]

(* The scaled-open ladder of offered rates (requests/s). The reference
   rung, where the latency percentiles are read, runs for 80% of the
   measured phase; each higher rung for 4% of it, climbing until one
   fails. The reference rate keeps the server below half load, so that
   host noise does not turn into queueing. *)
let reference_rate = 100.
let ladder = [ 150.; 200.; 250.; 300.; 350. ]

let obj kvs = J.Obj kvs

let counters_json cs = obj (List.map (fun (k, v) -> (k, J.Int v)) cs)

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Spawn a server and create the workload's sessions on one connection.
   Returns the server, the session and the set-up time. *)
let boot ~exe ~flags (w : Workloads.t) =
  let sess = w.session () in
  let t = tally () in
  let t0 = now () in
  let s = spawn ~exe ~args:flags in
  let boot_rss = status_kb s "VmRSS" in
  let c = connect s in
  List.iter
    (fun (r : request) ->
       let t1 = now () in
       let line = call c r.line in
       record t r ~lat_s:(now () -. t1) line)
    sess.setup;
  let setup_s = now () -. t0 in
  close c;
  if failed t > 0 then failwith "set-up: a create request failed";
  (s, sess, setup_s, boot_rss)

let summary (samples : Samples.t) =
  let s = Samples.sorted samples in
  let n = Array.length s in
  obj
    [
      ("n", J.Int n);
      ("mean", fnum (Samples.mean samples));
      ("p50", fnum (Samples.pct s 0.50));
      ("p90", fnum (Samples.pct s 0.90));
      ("p99", fnum (Samples.pct s 0.99));
    ]

let tally_json t =
  obj
    [
      ("attempted", J.Int t.attempted);
      ("ok", J.Int t.ok);
      ("wrong", J.Int t.wrong);
      ("known_defect", J.Int t.known_defect);
      ("errors", obj (Hashtbl.fold (fun k v a -> (k, J.Int v) :: a) t.errors []));
      ("latency_us", summary t.lat_us);
      ("mean_all_us", fnum (t.lat_sum_us /. float t.attempted));
    ]

(* The sequential counting phase: [count_requests] requests one at a time
   on one connection, with stats deltas around it. Its counts are
   deterministic work measures. *)
let count_phase s (w : Workloads.t) (sess : Workloads.session) =
  let c = connect s in
  let before = counters c in
  let t = tally () in
  let gap = Samples.create () in
  ignore
    (closed_loop ~limit:w.count_requests t [| c |] [| sess.agents.(0) |]
       ~gap_us:gap ~seconds:infinity);
  let d = delta before (counters c) in
  close c;
  (t, d)

(* The hold of recorded defect 2: on a warm connection, two pings sent
   in one write, and the time from the first reply to the second. The
   server sends the second reply while the first is unacknowledged, and
   without TCP_NODELAY it waits for the client's delayed ACK. Median of
   10 pairs. *)
let pipelined_hold s =
  let c = connect s in
  let ping = {|{"op":"ping"}|} in
  let h = Samples.create () in
  for _ = 1 to 10 do
    for _ = 1 to 5 do
      ignore (call c ping)
    done;
    send c (ping ^ "\n" ^ ping);
    ignore (recv c);
    let a = now () in
    ignore (recv c);
    Samples.add h ((now () -. a) *. 1e6)
  done;
  close c;
  Samples.pct (Samples.sorted h) 0.5

(* Each set-up follows a calibration, so that setup_s can be scaled to
   the host's speed as the CPU figure is. *)
let run_setup ~exe ~flags ~(w : Workloads.t) =
  let cal = tally () in
  let times =
    List.init setups (fun _ ->
      calibrate cal;
      let s, _, st, _ = boot ~exe ~flags w in
      if not (stop s) then failwith "a set-up server did not exit 0";
      J.Float st)
  in
  obj
    [
      ("setup_s", J.List times);
      ("kernel_us", fnum (kernel_median cal.marks));
      ("kernel_ref_us", J.Float kernel_ref_us);
    ]

let run_wire ~exe ~flags ~(w : Workloads.t) ~seconds ~repeat =
  w.prepare ();
  let s, sess, _, boot_rss = boot ~exe ~flags w in
  let count_tally, count_delta = count_phase s w sess in
  let conns = Array.init w.conns (fun _ -> connect s) in
  let stats_c = connect s in
  let before = counters stats_c in
  let cpu0 = cpu () in
  let server_cpu0 = cpu_s s in
  let steal0, ticks0 = host_ticks () in
  let probe () = thread_ns s in
  let t0 = now () in
  let measured =
    if w.open_loop then begin
      let next = sess.agents.(0) in
      (* A rung passes when its p99 meets the limit, nothing failed but
         the recorded defect, and the requests unanswered when arrivals
         stopped could still be served within the limit. *)
      let run rate secs =
        open_loop ~probe conns next ~rate ~seconds:secs
          ~passes:(fun t ~backlog ->
            Samples.pct (Samples.sorted t.lat_us) 0.99 <= w.limit_us
            && failed t = t.known_defect
            && float backlog <= rate *. w.limit_us /. 1e6)
      in
      let reference = run reference_rate (seconds *. 0.8) in
      let rung_secs = seconds *. 0.04 in
      let rec climb best = function
        | [] -> (best, [])
        | rate :: rest ->
          let r = run rate rung_secs in
          if r.passed then
            let b, rs = climb (Some r) rest in
            (b, r :: rs)
          else (best, [ r ])
      in
      let best, rungs =
        if reference.passed then climb (Some reference) ladder
        else (None, [])
      in
      `Open (reference, best, rungs)
    end
    else begin
      let t = tally () and gap = Samples.create () in
      let wall = closed_loop ~probe t conns sess.agents ~gap_us:gap ~seconds in
      `Closed (t, gap, wall)
    end
  in
  let wall = now () -. t0 in
  let client_cpu = cpu () -. cpu0 in
  let server_cpu = cpu_s s -. server_cpu0 in
  let steal1, ticks1 = host_ticks () in
  let measured_delta = delta before (counters stats_c) in
  let rss_kb = status_kb s "VmHWM" in
  let hold_us = if repeat then pipelined_hold s else nan in
  Array.iter close conns;
  close stats_c;
  let exit_ok = stop s in
  (* A second fresh server replays the counting phase: counts that differ
     are not deterministic work measures. *)
  let inexact =
    if not repeat then []
    else begin
      let s2, sess2, _, _ = boot ~exe ~flags w in
      let _, d2 = count_phase s2 w sess2 in
      if not (stop s2) then failwith "the repeat server did not exit 0";
      let names = List.sort_uniq compare (List.map fst (count_delta @ d2)) in
      (* Timers accumulate wall time, not work: leave them out. *)
      List.filter
        (fun k ->
           (not (Filename.check_suffix k ".ns"))
           && List.assoc_opt k count_delta <> List.assoc_opt k d2)
        names
    end
  in
  let served_rps (r : rung) = float r.rung_tally.ok /. r.rung_seconds in
  let rung_json (r : rung) =
    obj
      [
        ("rate", J.Float r.rate);
        ("passed", J.Bool r.passed);
        ("seconds", J.Float r.rung_seconds);
        ("served_rps", J.Float (served_rps r));
        ("backlog", J.Int r.backlog);
        ("lag_us", summary r.lag_us);
        ("tally", tally_json r.rung_tally);
        ( "windowed",
          windowed r.rung_tally ~t0:r.rung_t0 ~t1:(r.rung_t0 +. r.rung_seconds) );
      ]
  in
  let measured_json =
    match measured with
    | `Closed (t, gap, wall) ->
      [
        ("loop", J.String "closed");
        ("tally", tally_json t);
        ("throughput_rps", J.Float (float t.ok /. wall));
        ("gap_us", summary gap);
        ("windowed", windowed t ~t0 ~t1:(t0 +. wall));
      ]
    | `Open (reference, best, rungs) ->
      [
        ("loop", J.String "open");
        ("reference", rung_json reference);
        ("rungs", J.List (List.map rung_json rungs));
        ( "max_rate_rps",
          match best with Some r -> J.Float (served_rps r) | None -> J.Null );
      ]
  in
  let all_tallies =
    match measured with
    | `Closed (t, _, _) -> [ t ]
    | `Open (reference, _, rungs) ->
      reference.rung_tally :: List.map (fun r -> r.rung_tally) rungs
  in
  let sum f = List.fold_left (fun a t -> a + f t) 0 all_tallies in
  let kernel_us = kernel_median (List.concat_map (fun t -> t.marks) all_tallies) in
  let cpu_ref =
    let k = Samples.create () in
    List.iter
      (fun t -> List.iter (Samples.add k) (cpu_per_reply ~ref_us:kernel_ref_us ~seg_s:cpu_segment_s t))
      all_tallies;
    k
  in
  obj
    [
      ("workload", J.String w.name);
      ("limit_us", J.Float w.limit_us);
      ("count", obj [ ("tally", tally_json count_tally);
                      ("kernel_us", fnum (kernel_median count_tally.marks));
                      ("counters", counters_json count_delta) ]);
      ("measured", obj (measured_json @ [ ("counters", counters_json measured_delta) ]));
      ("attempted", J.Int (sum (fun t -> t.attempted)));
      (* Replies of the recorded implicit-view defect are counted apart
         from the other failures: they lower success_ratio, which is
         gated, and leave [failed] to what the benchmark does not expect. *)
      ("failed", J.Int (sum (fun t -> failed t - t.known_defect)));
      ("known_defect", J.Int (sum (fun t -> t.known_defect)));
      ("correct", J.Bool (List.for_all correct (count_tally :: all_tallies)));
      ("exit_ok", J.Bool exit_ok);
      ("wall_s", J.Float wall);
      ("client_cpu_s", J.Float client_cpu);
      ("server_cpu_s", J.Float server_cpu);
      ("kernel_us", fnum kernel_us);
      ("kernel_ref_us", J.Float kernel_ref_us);
      ("server_cpu_ref_us", fnum (Samples.pct (Samples.sorted cpu_ref) 0.5));
      ("cpu_segments", J.Int cpu_ref.Samples.n);
      ( "host_steal_ratio",
        J.Float (float (steal1 - steal0) /. float (max 1 (ticks1 - ticks0))) );
      ("server_peak_rss_kb", J.Int rss_kb);
      ("pipelined_hold_us", fnum hold_us);
      ("server_boot_rss_kb", J.Int boot_rss);
      ("sessions", J.Int (List.length sess.setup));
      ("inexact_counters", J.List (List.map (fun k -> J.String k) inexact));
    ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let flags, args =
    let rec split acc = function
      | "--" :: rest -> (rest, List.rev acc)
      | a :: rest -> split (a :: acc) rest
      | [] -> ([], List.rev acc)
    in
    split [] args
  in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | a :: _ -> failwith ("unexpected argument " ^ a)
  in
  match args with
  | (("setup" | "wire" | "replay") as cmd) :: rest ->
    let o = opts [] rest in
    let get k =
      match List.assoc_opt k o with
      | Some v -> v
      | None -> failwith ("missing --" ^ k)
    in
    let seed = int_of_string (get "seed") in
    let w = Workloads.make (get "workload") ~seed in
    print_endline
      (J.to_string
         (match cmd with
          | "setup" -> run_setup ~exe:(get "server") ~flags ~w
          | "wire" ->
            run_wire ~exe:(get "server") ~flags ~w
              ~seconds:(float_of_string (get "seconds"))
              ~repeat:(get "repeat" = "1")
          | _ ->
            Replay.run ~seed ~w ~mode:(get "mode") ~traced:(get "traced" = "1")
              ~pause_s:(float_of_string (get "pause-us") /. 1e6)))
  | _ ->
    prerr_endline "usage: wbench setup|wire|replay ...";
    exit 2
