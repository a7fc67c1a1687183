(* The benchmark's side of the wire: a spawned whynot_serverd process,
   client connections, reply decoding and the latency/failure tally. *)

module J = Whynot.Json

let now = Unix.gettimeofday

(* --- the server process --- *)

type server = { pid : int; port : int; boot : in_channel }

(* Servers not yet stopped; killed at exit if the benchmark fails. *)
let live = ref []

let () =
  at_exit (fun () ->
    List.iter
      (fun pid ->
         (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
         try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
      !live)

let spawn ~exe ~args =
  let r, w = Unix.pipe ~cloexec:true () in
  (* stdin: a pipe already at end of file. *)
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  Unix.close stdin_w;
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) stdin_r w Unix.stderr
  in
  live := pid :: !live;
  Unix.close w;
  Unix.close stdin_r;
  let boot = Unix.in_channel_of_descr r in
  (* "whynot-server listening on HOST:PORT" *)
  match input_line boot with
  | line ->
    let i = String.rindex line ':' in
    let port = int_of_string (String.sub line (i + 1) (String.length line - i - 1)) in
    { pid; port; boot }
  | exception End_of_file ->
    failwith "whynot_serverd exited before printing its boot line"

(* A /proc/PID/status field of the server, in kB: VmHWM is the peak
   resident set, VmRSS the current one. *)
let status_kb s field =
  let ic = open_in (Printf.sprintf "/proc/%d/status" s.pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
       let rec scan () =
         match input_line ic with
         | l when String.length l > String.length field
                   && String.sub l 0 (String.length field) = field ->
           Scanf.sscanf l "%s@: %d" (fun _ kb -> kb)
         | _ -> scan ()
       in
       scan ())

(* CPU time the server has used, all its threads, in seconds: utime and
   stime of /proc/PID/stat, in clock ticks of 1/100 s. *)
let cpu_s s =
  let ic = open_in (Printf.sprintf "/proc/%d/stat" s.pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
       (* Fields 14 and 15; the command name (field 2) may hold spaces,
          so count from the ")" that closes it. *)
       let l = input_line ic in
       let i = String.rindex l ')' in
       let fields = String.split_on_char ' ' (String.sub l (i + 2) (String.length l - i - 2)) in
       float (int_of_string (List.nth fields 11) + int_of_string (List.nth fields 12))
       /. 100.)

(* Run time of each of the server's threads so far, in ns, keyed by
   thread id: the first field of /proc/PID/task/TID/schedstat. Unlike
   the tick counts of /proc/PID/stat it resolves a fraction of a second
   of work. A thread that exits between two reads loses what it ran
   since the first; the server's threads that do work live as long as
   their connection. *)
let thread_ns s =
  let dir = Printf.sprintf "/proc/%d/task" s.pid in
  List.filter_map
    (fun tid ->
       match open_in (Filename.concat dir tid ^ "/schedstat") with
       | ic ->
         Fun.protect
           ~finally:(fun () -> close_in ic)
           (fun () ->
              match Scanf.sscanf (input_line ic) "%f" Fun.id with
              | ns -> Some (tid, ns)
              | exception (End_of_file | Scanf.Scan_failure _) -> None)
       | exception Sys_error _ -> None)
    (Array.to_list (try Sys.readdir dir with Sys_error _ -> [||]))

(* Server CPU time between two reads of [thread_ns], in ns. *)
let ns_between a b =
  List.fold_left
    (fun acc (tid, ns) ->
       acc +. ns -. Option.value ~default:0. (List.assoc_opt tid a))
    0. b

(* Steal and total CPU ticks of the host so far (the "cpu" line of
   /proc/stat): time the hypervisor gave this machine's CPUs to others. *)
let host_ticks () =
  let ic = open_in "/proc/stat" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
       match
         List.filter (( <> ) "") (String.split_on_char ' ' (input_line ic))
       with
       | "cpu" :: ticks ->
         let ticks = List.map int_of_string ticks in
         (List.nth ticks 7, List.fold_left ( + ) 0 ticks)
       | _ -> failwith "unexpected /proc/stat")

(* SIGTERM and wait; [true] iff the server drained and exited 0. *)
let stop s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let _, status = Unix.waitpid [] s.pid in
  live := List.filter (( <> ) s.pid) !live;
  close_in_noerr s.boot;
  status = Unix.WEXITED 0

(* --- connections --- *)

type conn = { fd : Unix.file_descr; mutable pending : string; chunk : Bytes.t }

let connect s =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, s.port));
  { fd; pending = ""; chunk = Bytes.create 65536 }

let close c = Unix.close c.fd

let send c line =
  let data = Bytes.of_string (line ^ "\n") in
  let len = Bytes.length data in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write c.fd data !off (len - !off)
  done

(* One complete line already received, if any. *)
let take_line c =
  match String.index_opt c.pending '\n' with
  | None -> None
  | Some i ->
    let line = String.sub c.pending 0 i in
    c.pending <- String.sub c.pending (i + 1) (String.length c.pending - i - 1);
    Some line

(* Read what the socket has; fails on a hang-up. *)
let fill c =
  match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
  | 0 -> failwith "the server closed the connection"
  | n -> c.pending <- c.pending ^ Bytes.sub_string c.chunk 0 n

let rec recv c =
  match take_line c with
  | Some l -> l
  | None ->
    fill c;
    recv c

let call c line =
  send c line;
  recv c

(* --- replies --- *)

type reply = Result of J.t | Error of string * string

let decode line =
  match J.of_string line with
  | Ok j -> (
    match (J.member "result" j, J.member "error" j) with
    | Some r, _ -> Result r
    | None, Some e ->
      let field k =
        Option.value ~default:"" (Option.bind (J.member k e) J.to_string_opt)
      in
      Error (field "code", field "message")
    | None, None -> Error ("bad-reply", line))
  | Error _ -> Error ("bad-reply", line)

let counters c =
  match decode (call c {|{"op":"stats"}|}) with
  | Result r -> (
    match J.member "counters" r with
    | Some (J.Obj kvs) ->
      List.filter_map
        (fun (k, v) -> Option.map (fun n -> (k, n)) (J.to_int_opt v))
        kvs
    | _ -> failwith "stats reply without counters")
  | Error (code, m) -> failwith ("stats: " ^ code ^ ": " ^ m)

let delta before after =
  List.filter_map
    (fun (k, v) ->
       let d = v - Option.value ~default:0 (List.assoc_opt k before) in
       if d = 0 then None else Some (k, d))
    after

(* --- requests and their checks --- *)

(* A request with the check its reply must pass. [check] sees the result
   of a successful reply and returns [true] when it is correct; [known]
   recognises an error reply caused by a recorded defect. *)
type request = {
  op : string;
  line : string;
  check : J.t -> bool;
  known : string * string -> bool;
  after : J.t -> unit;  (** runs on a reply that passed its check *)
}

let no_known _ = false

let strings j =
  match J.to_list_opt j with
  | Some l -> Some (List.filter_map J.to_string_opt l)
  | None -> None

let member_is k expected r = J.member k r = Some expected

(* --- the tally --- *)

module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let sorted t =
    let s = Array.sub t.a 0 t.n in
    Array.sort compare s;
    s

  (* Nearest-rank percentile of a sorted array. *)
  let pct s p =
    let n = Array.length s in
    if n = 0 then nan
    else s.(min (n - 1) (max 0 (int_of_float (ceil (p *. float n)) - 1)))

  let mean t =
    if t.n = 0 then nan
    else begin
      let s = ref 0. in
      for i = 0 to t.n - 1 do
        s := !s +. t.a.(i)
      done;
      !s /. float t.n
    end
end

type tally = {
  mutable attempted : int;
  mutable ok : int;
  mutable wrong : int;            (** successful replies that failed the check *)
  mutable known_defect : int;     (** error replies of the recorded defect *)
  errors : (string, int) Hashtbl.t;  (** every other error reply, by code *)
  lat_us : Samples.t;
      (** latency of each reply that passed its check, so that a fast
          error reply (the recorded defect's) cannot lower a percentile *)
  done_s : Samples.t;   (** completion time of each reply, as [lat_us] *)
  mutable lat_sum_us : float;  (** latency summed over every reply *)
  mutable marks : mark list;  (** one per calibration, latest first *)
}

(* What a calibration saw: the time, the kernel time, the replies
   recorded so far and the server's [thread_ns]. *)
and mark = {
  at : float;
  kernel_us : float;
  replies : int;
  server_ns : (string * float) list;
}

let tally () =
  {
    attempted = 0; ok = 0; wrong = 0; known_defect = 0;
    errors = Hashtbl.create 8; lat_us = Samples.create ();
    done_s = Samples.create (); lat_sum_us = 0.;
    marks = [];
  }

let failed t = t.attempted - t.ok

(* Record one reply and run the request's [after] when it passed. *)
let record t (req : request) ~lat_s line =
  let at = now () in
  t.attempted <- t.attempted + 1;
  t.lat_sum_us <- t.lat_sum_us +. (lat_s *. 1e6);
  match decode line with
  | Result r when req.check r ->
    t.ok <- t.ok + 1;
    Samples.add t.lat_us (lat_s *. 1e6);
    Samples.add t.done_s at;
    req.after r
  | Result _ ->
    t.wrong <- t.wrong + 1;
    if t.wrong <= 3 then
      Printf.eprintf "wbench: wrong %s reply: %s\n%!" req.op line
  | Error (code, msg) ->
    if req.known (code, msg) then t.known_defect <- t.known_defect + 1
    else begin
      Hashtbl.replace t.errors code
        (1 + Option.value ~default:0 (Hashtbl.find_opt t.errors code));
      if Hashtbl.length t.errors <= 3 then
        Printf.eprintf "wbench: %s error %s: %s\n%!" req.op code msg
    end

(* --- host speed --- *)

(* The host's speed, read from a fixed piece of OCaml work of the
   benchmark's own: hashing, allocation and a sort, as the server's
   requests do. Other tenants of a shared host slow its CPUs by up to
   half for stretches of seconds to minutes, the server's and the load
   generator's alike. The generator times the kernel every
   [calib_every] seconds of a load phase, between its own sends, so the
   kernel meets the host as the requests around it do. *)
let kernel () =
  let h = Hashtbl.create 256 in
  for i = 0 to 999 do
    Hashtbl.replace h (string_of_int (i * 7919)) i
  done;
  let l = List.sort compare (List.init 1000 (fun i -> i * 7919 mod 1009)) in
  ignore (Sys.opaque_identity (h, l))

(* One calibration: the fastest of 5 runs of the kernel, so that an
   interrupt or a collection inside one run does not count. It stops
   early rather than run past [until]. *)
let calibrate ?(until = infinity) ?(probe = fun () -> []) t =
  let server_ns = probe () in
  let best = ref infinity and runs = ref 0 in
  while !runs < 5 && (!runs = 0 || now () +. (2. *. !best) < until) do
    let a = now () in
    kernel ();
    best := Float.min !best (now () -. a);
    incr runs
  done;
  t.marks <-
    { at = now (); kernel_us = !best *. 1e6; replies = t.attempted; server_ns }
    :: t.marks

let kernel_median marks =
  let k = Samples.create () in
  List.iter (fun m -> Samples.add k m.kernel_us) marks;
  Samples.pct (Samples.sorted k) 0.5

(* Server CPU time per reply, scaled to a kernel time of [ref_us], over
   stretches of at least [seg_s] seconds between calibrations: one
   value per stretch. In each the server's CPU time is divided by the
   replies recorded and multiplied by [ref_us] over the median kernel
   time of the stretch. Calibrations run while no request is in the
   server, so a stretch holds whole requests. *)
let cpu_per_reply ~ref_us ~seg_s t =
  let rec go acc = function
    | a :: rest -> (
      let rec split inside = function
        | b :: rest when b.at < a.at +. seg_s -> split (b :: inside) rest
        | b :: rest -> Some (b, List.rev (b :: inside), rest)
        | [] -> None
      in
      match split [] rest with
      | Some (b, inside, rest) when b.replies > a.replies ->
        let us = ns_between a.server_ns b.server_ns /. 1e3 in
        let v =
          us /. float (b.replies - a.replies) *. ref_us
          /. kernel_median inside
        in
        go (v :: acc) (b :: rest)
      | Some (b, _, rest) -> go acc (b :: rest)
      | None -> acc)
    | [] -> acc
  in
  go [] (List.rev t.marks)

(* Seconds between calibrations in a load phase. *)
let calib_every = 0.05

(* Statistics of [k] equal windows of [t0, t1]: successful replies per
   second, latency percentiles of the replies completed in each, and the
   median kernel time of the calibrations run in it (NaN if none ran). *)
let windows t ~t0 ~t1 ~k =
  let len = (t1 -. t0) /. float k in
  let bin x = min (k - 1) (max 0 (int_of_float ((x -. t0) /. len))) in
  let lat = Array.init k (fun _ -> Samples.create ()) in
  for i = 0 to t.lat_us.Samples.n - 1 do
    Samples.add lat.(bin t.done_s.Samples.a.(i)) t.lat_us.Samples.a.(i)
  done;
  let cal = Array.init k (fun _ -> Samples.create ()) in
  List.iter (fun m -> Samples.add cal.(bin m.at) m.kernel_us) t.marks;
  let lat = Array.map Samples.sorted lat and cal = Array.map Samples.sorted cal in
  Array.init k (fun b ->
    let s = lat.(b) in
    ( float (Array.length s) /. len,
      Samples.pct s 0.50,
      Samples.pct s 0.90,
      Samples.pct s 0.99,
      Samples.pct cal.(b) 0.50 ))

(* Replies are correct when none failed its check and every error reply
   is either the recorded defect or a timeout/shed, which count as
   failures but not as wrong answers. *)
let correct t =
  t.wrong = 0
  && Hashtbl.fold
       (fun code _ acc -> acc && (code = "timeout" || code = "overloaded"))
       t.errors true

(* --- load loops --- *)

(* Closed loop: each connection sends its next request as soon as the
   previous reply is in, until [seconds] have passed (or [limit] requests
   were sent). Latency runs from send to reply. [gap_us] records the
   generator's own turnaround, reply-in to next-send. Returns the wall
   time from the first send to the last reply. *)
let closed_loop ?(limit = max_int) ?probe t conns
    (agents : (unit -> request) array) ~gap_us ~seconds =
  let n = Array.length conns in
  let inflight = Array.make n None in
  let sent = ref 0 in
  let t0 = now () in
  let t_end = t0 +. seconds in
  let send_next i =
    if !sent < limit && now () < t_end then begin
      let r = agents.(i) () in
      incr sent;
      inflight.(i) <- Some (r, now ());
      send conns.(i) r.line
    end
  in
  for i = 0 to n - 1 do
    send_next i
  done;
  let last = ref t0 in
  let next_calib = ref t0 in
  while Array.exists Option.is_some inflight do
    let fds =
      List.filter_map
        (fun i -> if inflight.(i) <> None then Some conns.(i).fd else None)
        (List.init n Fun.id)
    in
    let ready, _, _ = Unix.select fds [] [] 5.0 in
    Array.iteri
      (fun i c ->
         if List.mem c.fd ready then begin
           fill c;
           match (take_line c, inflight.(i)) with
           | Some line, Some (r, at) ->
             let t_in = now () in
             last := t_in;
             inflight.(i) <- None;
             record t r ~lat_s:(t_in -. at) line;
             let t_ready =
               if t_in < !next_calib then t_in
               else begin
                 calibrate ?probe t;
                 next_calib := t_in +. calib_every;
                 now ()
               end
             in
             send_next i;
             if inflight.(i) <> None then Samples.add gap_us ((now () -. t_ready) *. 1e6)
           | _ -> ()
         end)
      conns
  done;
  !last -. t0

type rung = {
  rate : float;
  passed : bool;
  rung_tally : tally;
  lag_us : Samples.t;       (** send time minus due time *)
  backlog : int;            (** requests still unanswered when arrivals ended *)
  rung_t0 : float;          (** due time of the first arrival *)
  rung_seconds : float;
}

(* Open loop: arrivals due every [1/rate] s for [seconds], whatever
   the replies do. Each connection carries one request at a time, as a
   request/response client does; arrivals due while every connection is
   busy wait in the generator's queue, in order. Latency runs from the
   due time, so time spent queued, in the generator or the server,
   counts. The lag is how late a request went out once it was due and a
   connection was free.

   A connection never carries two requests at once because the server
   does not set TCP_NODELAY (NOTES.md, recorded defect 2): a reply sent
   while the previous one is unacknowledged waits for the client's next
   request. A pipelining client then reads the gap between arrivals, not
   the server. [Wbench] measures that hold on its own
   (server.pipelined_hold_us). *)
let open_loop ?probe conns (next : unit -> request) ~rate ~seconds ~passes =
  let t = tally () and lag_us = Samples.create () in
  let n = Array.length conns in
  let busy = Array.make n None in
  let freed = Array.make n 0. in
  let queued = Queue.create () in
  let t0 = now () +. 0.001 in
  let t_end = t0 +. seconds in
  let k = ref 0 in
  let due () = t0 +. (float !k /. rate) in
  let in_flight () = Array.fold_left (fun a b -> if b = None then a else a + 1) 0 busy in
  let backlog = ref (-1) in
  let next_calib = ref t0 in
  while due () < t_end || in_flight () > 0 || not (Queue.is_empty queued) do
    while due () < t_end && now () >= due () do
      Queue.push (due ()) queued;
      incr k
    done;
    if due () >= t_end && !backlog < 0 then
      backlog := in_flight () + Queue.length queued;
    Array.iteri
      (fun i c ->
         if busy.(i) = None && not (Queue.is_empty queued) then begin
           let d = Queue.pop queued in
           let r = next () in
           busy.(i) <- Some (r, d);
           send c r.line;
           Samples.add lag_us ((now () -. Float.max d freed.(i)) *. 1e6)
         end)
      conns;
    (* Calibrate while nothing is in flight and the next arrival is not
       due for a while. *)
    if in_flight () = 0 && now () >= !next_calib && due () -. now () > 0.004
    then begin
      calibrate ?probe t ~until:(due () -. 0.001);
      next_calib := now () +. calib_every
    end;
    let fds =
      List.filter_map
        (fun i -> if busy.(i) = None then None else Some conns.(i).fd)
        (List.init n Fun.id)
    in
    let timeout = if due () < t_end then Float.max 0. (due () -. now ()) else 5.0 in
    let ready, _, _ =
      if fds = [] && timeout = 0. then ([], [], [])
      else Unix.select fds [] [] timeout
    in
    Array.iteri
      (fun i c ->
         if List.mem c.fd ready then begin
           fill c;
           match (take_line c, busy.(i)) with
           | Some line, Some (r, d) ->
             let t_in = now () in
             busy.(i) <- None;
             freed.(i) <- t_in;
             record t r ~lat_s:(t_in -. d) line
           | _ -> ()
         end)
      conns
  done;
  let backlog = max 0 !backlog in
  { rate; rung_tally = t; lag_us; backlog; rung_t0 = t0; rung_seconds = seconds;
    passed = passes t ~backlog }
