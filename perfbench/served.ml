(* The two served workloads: the daemon (and the router) run as their
   own processes, spawned from the repository's CLI; this process
   computes the expected verdicts and drives a closed loop over the
   public client API, byte-comparing every reply. *)

module Client = Server.Client
module Protocol = Server.Protocol

(* ----------------------------- processes ----------------------------- *)

type proc = { pid : int; name : string; out : string; err : string }

let children : proc list ref = ref []

let spawn ~program ~name args =
  let out = name ^ ".out" and err = name ^ ".err" in
  let open_w path = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let fd_in = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let fd_out = open_w out and fd_err = open_w err in
  let pid =
    Unix.create_process program (Array.of_list (program :: args)) fd_in fd_out fd_err
  in
  List.iter Unix.close [ fd_in; fd_out; fd_err ];
  let p = { pid; name; out; err } in
  children := p :: !children;
  p

let reap p = children := List.filter (fun q -> q.pid <> p.pid) !children

(* Wait for [p] to exit, escalating to SIGKILL after [grace_s]. *)
let wait_exit ?(grace_s = 20.) p =
  let t0 = Measure.now_ns () in
  let rec poll () =
    match Unix.waitpid [ Unix.WNOHANG ] p.pid with
    | 0, _ ->
      if Measure.elapsed_s t0 > grace_s then begin
        (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] p.pid)
      end
      else begin
        Unix.sleepf 0.005;
        poll ()
      end
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  poll ();
  reap p

(* SIGINT is the daemon's and the router's graceful drain: they print
   their final report (stats, metrics, spans) and exit. *)
let stop p =
  (try Unix.kill p.pid Sys.sigint with Unix.Unix_error _ -> ());
  wait_exit p

let kill_all () =
  List.iter
    (fun p ->
      (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] p.pid) with Unix.Unix_error _ -> ())
    !children;
  children := []

let wait_ready ?(timeout_s = 30.) p addr =
  let t0 = Measure.now_ns () in
  let rec go () =
    match
      let c = Client.connect addr in
      Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
          Client.request c (Protocol.ping ()))
    with
    | reply when Protocol.reply_ok reply -> ()
    | _ | (exception _) ->
      (match Unix.waitpid [ Unix.WNOHANG ] p.pid with
      | 0, _ -> ()
      | _ ->
        reap p;
        failwith (Printf.sprintf "%s exited during start-up (see %s)" p.name p.err));
      if Measure.elapsed_s t0 > timeout_s then failwith (p.name ^ " did not become ready");
      Unix.sleepf 0.002;
      go ()
  in
  go ()

let stats addr =
  let c = Client.connect addr in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
      Client.request c (Protocol.stats_request ()))

let rec int_at path j =
  match (path, j) with
  | [], Json.Int n -> n
  | k :: rest, _ -> (match Json.member k j with Some v -> int_at rest v | None -> 0)
  | _ -> 0

(* ------------------------------ inputs ------------------------------- *)

(* The [Check.Gen.ith ~size:4] stream for [seed], keeping only instances
   whose mapping matrix has not appeared before: every one misses the
   store, the verdict cache and the family cache (which keys on T). *)
let distinct_stream ~seed count =
  let seen = Hashtbl.create (2 * count) in
  let out = Array.make count (Check.Gen.ith ~seed ~size:4 0) in
  let rec go i n =
    if n < count then begin
      let inst = Check.Gen.ith ~seed ~size:4 i in
      let key = Intmat.to_string inst.Check.Instance.tmat in
      if Hashtbl.mem seen key then go (i + 1) n
      else begin
        Hashtbl.add seen key ();
        out.(n) <- inst;
        go (i + 1) (n + 1)
      end
    end
  in
  go 0 0;
  out

(* What the daemon must answer, rendered exactly as it renders it. *)
let expected_bytes (inst : Check.Instance.t) =
  Json.to_string
    (Protocol.json_of_wire
       (Protocol.wire_of_verdict (Analysis.check ~mu:inst.Check.Instance.mu inst.Check.Instance.tmat)))

(* ---------------------------- closed loop ---------------------------- *)

type drive = {
  lat_ms : float array;          (** Per op; [infinity] for a failed op. *)
  chunk_ops_per_s : float array;
  chunk_cpu_s : float array;     (** CPU seconds of the [pids] per slice. *)
  chunk_steal : float array;     (** Share of the slice's CPU time the hypervisor stole. *)
  wall_s : float;
  failed : int;
}

let sum_cpu pids = List.fold_left (fun acc pid -> acc +. Measure.cpu_s pid) 0. pids

(* The ops [0 .. n-1] over [conns] v2 connections to [addr], each a
   closed-loop client with one request in flight, where op [i] sends
   [inst i] and must be answered with [expect i], byte for byte.  The
   ops run in [chunks] consecutive slices separated by a barrier, so
   throughput, the CPU time of [pids] and the hypervisor's steal are
   known per slice. *)
let drive ?(pids = []) ?(conns = 2) ~addr ~chunks ~n ~(inst : int -> Check.Instance.t)
    ~(expect : int -> string) () =
  let lat = Array.make n infinity in
  let failed = Atomic.make 0 in
  let connect () = Client.connect ~transport:Server.Wire.V2 addr in
  let cs = Array.init conns (fun _ -> ref (Some (connect ()))) in
  let next = Atomic.make 0 and hi = Atomic.make 0 in
  let m = Mutex.create () and cv = Condition.create () in
  let gen = ref 0 and finished = ref 0 and quit = ref false in
  let one w i =
    let x = inst i in
    let ok =
      match !(cs.(w)) with
      | None -> false
      | Some c -> (
        let t0 = Measure.now_ns () in
        match
          Client.send_analyze c ~id:i ~mu:x.Check.Instance.mu x.Check.Instance.tmat;
          Client.recv c
        with
        | reply ->
          let ms = Int64.to_float (Int64.sub (Measure.now_ns ()) t0) /. 1e6 in
          let good =
            Protocol.reply_ok reply
            && Protocol.reply_id reply = Json.Int i
            &&
            match Json.member "verdict" reply with
            | Some v -> Json.to_string v = expect i
            | None -> false
          in
          if good then lat.(i) <- ms;
          good
        | exception _ ->
          (* A broken connection: drop it and reconnect for the next op. *)
          Client.close c;
          cs.(w) := (try Some (connect ()) with _ -> None);
          false)
    in
    if not ok then Atomic.incr failed
  in
  let worker w () =
    let seen = ref 0 in
    let rec loop () =
      Mutex.lock m;
      while !gen = !seen && not !quit do
        Condition.wait cv m
      done;
      let q = !quit in
      seen := !gen;
      Mutex.unlock m;
      if not q then begin
        let rec ops () =
          let i = Atomic.fetch_and_add next 1 in
          if i < Atomic.get hi then begin
            one w i;
            ops ()
          end
        in
        ops ();
        Mutex.lock m;
        incr finished;
        Condition.broadcast cv;
        Mutex.unlock m;
        loop ()
      end
    in
    loop ()
  in
  let threads = List.init conns (fun w -> Thread.create (worker w) ()) in
  let chunk_rate = Array.make chunks 0. in
  let chunk_cpu = Array.make chunks 0. and chunk_steal = Array.make chunks 0. in
  let t_all = Measure.now_ns () in
  for k = 0 to chunks - 1 do
    let lo = k * n / chunks and hi_k = (k + 1) * n / chunks in
    Atomic.set next lo;
    Atomic.set hi hi_k;
    let cpu0 = sum_cpu pids and steal0 = Measure.steal_ticks () in
    let t0 = Measure.now_ns () in
    Mutex.lock m;
    finished := 0;
    incr gen;
    Condition.broadcast cv;
    while !finished < conns do
      Condition.wait cv m
    done;
    Mutex.unlock m;
    let wall = Measure.elapsed_s t0 in
    chunk_rate.(k) <- float_of_int (hi_k - lo) /. wall;
    chunk_cpu.(k) <- sum_cpu pids -. cpu0;
    chunk_steal.(k) <- Measure.steal_share ~ticks:(Measure.steal_ticks () -. steal0) ~wall_s:wall
  done;
  let wall_s = Measure.elapsed_s t_all in
  Mutex.lock m;
  quit := true;
  Condition.broadcast cv;
  Mutex.unlock m;
  List.iter Thread.join threads;
  Array.iter (fun c -> Option.iter Client.close !c) cs;
  { lat_ms = lat; chunk_ops_per_s = chunk_rate; chunk_cpu_s = chunk_cpu; chunk_steal; wall_s;
    failed = Atomic.get failed }
