(* The cluster router: one process that makes N daemon shards look
   like one daemon (docs/CLUSTER.md).

   Downstream it speaks the same versioned wire protocol as the
   daemon — v1 JSON lines by default, v2 binary after a [hello] — one
   thread per accepted client.  Upstream it keeps a small pool of
   pipelined connections per shard; requests are restamped with a
   router-unique integer id, the original id parked in the pool
   connection's pending table, and a per-connection reader thread
   matches replies back and restamps them on the way out.  Binary
   analyze traffic is never re-encoded: a client's ['A'] frame goes
   upstream as it arrived with the router id patched in, and the
   shard's ['V'] reply comes back the same way with the client's id —
   the reply follows the request's dialect, the daemon's own rule;
   everything else travels as JSON documents.  [analyze]
   routes by the matrix-only family hash through the consistent-hash
   {!Ring} (so the content key and its mu-parametric family stay on
   one shard); the stateless ops round-robin over live shards;
   [ping]/[stats]/[drain]/[hello] answer inline; [ship] is rejected —
   it is the replication channel, shard-direct by contract.

   Gray-failure machinery (docs/RESILIENCE.md):

   - every in-flight request is one [reqstate] shared by however many
     upstream copies exist; [r_done] is the first-wins latch (atomic
     exchange), [r_outstanding] counts copies still parked so a lost
     connection only errors the client when the *last* copy dies;
   - a hedge thread ticks every millisecond over the table of
     hedgeable analyze requests; once a request has been in flight
     longer than the hedge delay (fixed, or adaptive: 2x the shard's
     observed p99), it re-issues the request on the shard's follower
     with the *remaining* deadline restamped, guarded by a token
     bucket so a melting shard cannot double the fleet's load;
   - the monitor times its pings and feeds latency into {!Health}'s
     EWMA circuit breaker; while a shard's breaker is [Open] its
     analyze traffic diverts to the follower, and [pick_rr] prefers
     shards whose breaker is closed.

   Hedging is byte-safe because verdicts are deterministic: primary
   and follower produce identical bytes for the same analyze, so
   taking the first reply never changes an answer.

   Failover: a monitor thread pings every shard each health interval
   and pumps its journal {!Shipper}; when {!Health} reports the
   threshold crossing, the shard's follower is caught up from the
   primary's journal and promoted in place.  {!promote_shard} exposes
   the same transition synchronously for the chaos harness, which
   needs the kill -> promote sequence at a deterministic point in its
   request stream.

   Lock order: shard [s_lock] > pool connection [u_plock] > client
   [c_olock].  Fault sites: [route.forward] (class [cluster]) is
   consulted once per forwarded request, on the client's thread, so a
   single-driver chaos run consults it at a seed-reproducible
   sequence; hedge re-issues never consult it (they are not part of
   the seeded request stream). *)

type shard_spec = {
  primary : Server.Client.addr;
  follower : Server.Client.addr option;
  journal : string option;
}

type hedge_policy = No_hedge | Fixed_ms of int | Adaptive

type config = {
  listen : Server.Daemon.listen;
  shards : shard_spec list;
  pool_size : int;
  shard_transport : Server.Wire.version;
  max_transport : Server.Wire.version;
  health_interval_ms : int;
  health_threshold : int;
  vnodes : int;
  hedge : hedge_policy;
  hedge_budget : int;
  latency_limit_ms : float;
}

let default_config listen shards =
  {
    listen;
    shards;
    pool_size = 2;
    shard_transport = Server.Wire.V2;
    max_transport = Server.Wire.V2;
    health_interval_ms = 1000;
    health_threshold = 3;
    vnodes = 64;
    hedge = Adaptive;
    hedge_budget = 64;
    latency_limit_ms = 500.;
  }

type client = {
  c_fd : Unix.file_descr;
  c_dec : Server.Wire.decoder;
  c_olock : Mutex.t;
  mutable c_version : Server.Wire.version;
  mutable c_closed : bool;
}

(* One forwarded request; shared by every upstream copy (primary send
   plus any hedge).  [r_done] is the first-reply-wins latch;
   [r_outstanding] counts copies still parked in pending tables so a
   dead connection errors the client only when no copy is left. *)
type reqstate = {
  r_client : client;
  r_id : Json.t;
  r_req : Server.Protocol.request;
  r_raw : Server.Wire.raw option;
      (* the client's own ['A'] frame, forwarded with ids patched in *)
  r_deadline : float;  (* absolute, {!Obs.Clock} seconds; nan = no deadline *)
  r_sent_at : float;   (* {!Obs.Clock} seconds *)
  r_done : bool Atomic.t;
  r_hedged : bool Atomic.t;
  r_outstanding : int Atomic.t;
  r_shard : shard;
}

and pending = { p_state : reqstate; p_hedge : bool }

and uconn = {
  u : Server.Client.conn;
  u_send : Mutex.t;
  u_pending : (int, pending) Hashtbl.t;
  u_plock : Mutex.t;
  mutable u_dead : bool;
  mutable u_reader : Thread.t option;
}

and shard = {
  idx : int;
  spec : shard_spec;
  s_lock : Mutex.t;
  mutable target : Server.Client.addr;
  mutable alive : bool;
  mutable promoted : bool;
  mutable pool : uconn array;    (* live connections only; replaced, never mutated *)
  mutable f_pool : uconn array;  (* follower pool: hedges + breaker diverts *)
  mutable next_conn : int;
  mutable f_next : int;
  forwarded : int Atomic.t;
  shed : int Atomic.t;
  hedges : int Atomic.t;
  hedge_wins : int Atomic.t;
  lat : float array;  (* ring of recent first-reply latencies, ms *)
  mutable lat_n : int;
  health : Health.t;
  shipper : Shipper.t option;
}

type t = {
  cfg : config;
  ring : Ring.t;
  shards : shard array;
  listen_fd : Unix.file_descr;
  sock_path : string option;
  pipe_r : Unix.file_descr;
  pipe_w : Unix.file_descr;
  next_rid : int Atomic.t;
  stopping : bool Atomic.t;
  rr : int Atomic.t;  (* round-robin cursor for the stateless ops *)
  lock : Mutex.t;     (* clients list + global counters *)
  mutable clients : (client * Thread.t) list;
  mutable accepted : int;
  mutable promotions : int;
  inflight : (int, reqstate) Hashtbl.t;  (* hedgeable requests, by primary rid *)
  i_lock : Mutex.t;
  h_lock : Mutex.t;   (* hedge token bucket *)
  mutable h_tokens : float;
  mutable h_refill_at : float;
}

let m_forwarded = Obs.Metrics.counter "router.forwarded"
let m_shed = Obs.Metrics.counter "router.shed"
let m_promotions = Obs.Metrics.counter "router.promotions"
let m_hedges = Obs.Metrics.counter "cluster.hedges"
let m_hedge_wins = Obs.Metrics.counter "cluster.hedge_wins"
let g_breaker = Obs.Metrics.gauge "cluster.breaker_state"

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let hedging_active t = t.cfg.hedge <> No_hedge && t.cfg.hedge_budget > 0

(* ----------------------------- listening --------------------------- *)

let bind_unix path =
  if Sys.file_exists path then begin
    (* Same stale-socket policy as the daemon: probe; unlink only a
       dead socket; never unlink a non-socket. *)
    let probe = Unix.socket PF_UNIX SOCK_STREAM 0 in
    (match Unix.connect probe (Unix.ADDR_UNIX path) with
    | () ->
      Unix.close probe;
      failwith (Printf.sprintf "Router.create: %s already has a live listener" path)
    | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) ->
      Unix.close probe;
      Unix.unlink path
    | exception Unix.Unix_error _ -> Unix.close probe (* let bind fail loudly *))
  end;
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  fd

let bind_tcp port =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.setsockopt fd SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 64;
  fd

let addr_string : Server.Client.addr -> string = function
  | `Unix path -> "unix:" ^ path
  | `Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

(* ------------------------------ create ----------------------------- *)

let create (cfg : config) =
  if cfg.shards = [] then invalid_arg "Router.create: no shards";
  if cfg.pool_size < 1 then invalid_arg "Router.create: pool_size must be >= 1";
  let listen_fd, sock_path =
    match cfg.listen with
    | Server.Daemon.Unix_sock path -> (bind_unix path, Some path)
    | Server.Daemon.Tcp port -> (bind_tcp port, None)
  in
  let pipe_r, pipe_w = Unix.pipe () in
  let shards =
    Array.of_list
      (List.mapi
         (fun idx spec ->
           {
             idx;
             spec;
             s_lock = Mutex.create ();
             target = spec.primary;
             alive = true;
             promoted = false;
             pool = [||];
             f_pool = [||];
             next_conn = 0;
             f_next = 0;
             forwarded = Atomic.make 0;
             shed = Atomic.make 0;
             hedges = Atomic.make 0;
             hedge_wins = Atomic.make 0;
             lat = Array.make 64 0.;
             lat_n = 0;
             health =
               Health.create ~threshold:cfg.health_threshold
                 ~latency_limit_ms:cfg.latency_limit_ms ();
             shipper =
               (match (spec.journal, spec.follower) with
               | Some journal, Some follower ->
                 Some (Shipper.create ~journal ~transport:Server.Wire.V1 ~follower ())
               | _ -> None);
           })
         cfg.shards)
  in
  {
    cfg;
    ring = Ring.make ~vnodes:cfg.vnodes (Array.length shards);
    shards;
    listen_fd;
    sock_path;
    pipe_r;
    pipe_w;
    next_rid = Atomic.make 1;
    stopping = Atomic.make false;
    rr = Atomic.make 0;
    lock = Mutex.create ();
    clients = [];
    accepted = 0;
    promotions = 0;
    inflight = Hashtbl.create 64;
    i_lock = Mutex.create ();
    h_lock = Mutex.create ();
    h_tokens = float_of_int (max 0 cfg.hedge_budget);
    h_refill_at = Obs.Clock.now_s ();
  }

let ring t = t.ring

let port t =
  match Unix.getsockname t.listen_fd with
  | Unix.ADDR_INET (_, p) -> Some p
  | _ -> None

(* --------------------------- client output ------------------------- *)

let write_bytes fd b =
  let n = Bytes.length b in
  let written = ref 0 in
  while !written < n do
    written := !written + Unix.write fd b !written (n - !written)
  done

(* Caller holds [c_olock]. *)
let write_doc c doc =
  write_bytes c.c_fd
    (Bytes.unsafe_of_string
       (Server.Wire.encode c.c_version (Server.Wire.Text (Json.to_string doc))))

let send_client c reply =
  locked c.c_olock (fun () ->
      if not c.c_closed then
        try write_doc c reply with Unix.Unix_error _ | Sys_error _ -> c.c_closed <- true)

let close_client t c =
  let was_open =
    locked c.c_olock (fun () ->
        let was = not c.c_closed in
        c.c_closed <- true;
        was)
  in
  if was_open then (try Unix.close c.c_fd with Unix.Unix_error _ -> ());
  locked t.lock (fun () ->
      t.clients <- List.filter (fun (cl, _) -> cl != c) t.clients)

(* --------------------------- latency ring -------------------------- *)

let record_latency shard ms =
  locked shard.s_lock (fun () ->
      shard.lat.(shard.lat_n mod Array.length shard.lat) <- ms;
      shard.lat_n <- shard.lat_n + 1)

(* Caller holds [s_lock]. *)
let ring_p99_locked shard =
  let n = min shard.lat_n (Array.length shard.lat) in
  if n = 0 then 0.
  else begin
    let a = Array.sub shard.lat 0 n in
    Array.sort compare a;
    a.(min (n - 1) (n * 99 / 100))
  end

let hedge_delay_ms t shard =
  match t.cfg.hedge with
  | No_hedge -> infinity
  | Fixed_ms n -> float_of_int n
  | Adaptive ->
    let p99 = locked shard.s_lock (fun () -> ring_p99_locked shard) in
    if p99 <= 0. then 10. else Float.max 1. (2. *. p99)

(* --------------------------- upstream pool ------------------------- *)

let take_pending uc rid =
  locked uc.u_plock (fun () ->
      match Hashtbl.find_opt uc.u_pending rid with
      | Some p ->
        Hashtbl.remove uc.u_pending rid;
        Some p
      | None -> None)

let drain_pendings uc =
  locked uc.u_plock (fun () ->
      let l = Hashtbl.fold (fun _ p acc -> p :: acc) uc.u_pending [] in
      Hashtbl.reset uc.u_pending;
      l)

(* Idempotent: the first caller wins; a parked request completes with
   a retriable [overloaded] only when the dying copy was its *last*
   outstanding one — a hedged request whose other copy is still parked
   elsewhere just loses a redundant leg.  The descriptor is only shut
   down here — the reader thread, the sole blocked reader, closes it
   on its way out. *)
let fail_uconn shard uc =
  let first =
    locked shard.s_lock (fun () ->
        let first = not uc.u_dead in
        uc.u_dead <- true;
        if first then begin
          let without a = Array.of_list (List.filter (fun x -> x != uc) (Array.to_list a)) in
          shard.pool <- without shard.pool;
          shard.f_pool <- without shard.f_pool
        end;
        first)
  in
  if first then begin
    Server.Client.shutdown uc.u;
    List.iter
      (fun p ->
        let left = Atomic.fetch_and_add p.p_state.r_outstanding (-1) - 1 in
        if left <= 0 && not (Atomic.exchange p.p_state.r_done true) then
          send_client p.p_state.r_client
            (Server.Protocol.error_reply ~id:p.p_state.r_id ~code:"overloaded"
               ~detail:(Printf.sprintf "shard %d connection lost" shard.idx)))
      (drain_pendings uc)
  end

let restamp id = function
  | Json.Obj fields ->
    Json.Obj (List.map (fun (k, v) -> if k = "id" then (k, id) else (k, v)) fields)
  | j -> j

(* The reply follows the request's dialect, as in the daemon: a ['V']
   verdict to a request that arrived as an ['A'] frame goes back as the
   shard sent it, with the client's id patched in; every other reply
   is the JSON document, restamped.  A client that switched back to
   JSON while the request was in flight gets the document too. *)
let reply_client r raw frame doc =
  let c = r.r_client in
  locked c.c_olock (fun () ->
      if not c.c_closed then
        try
          match (frame, r.r_raw, r.r_id, c.c_version) with
          | Server.Wire.Bin_verdict _, Some _, Json.Int id, Server.Wire.V2 ->
            Server.Wire.set_id raw id;
            write_bytes c.c_fd (Server.Wire.raw_bytes raw)
          | _ -> write_doc c (restamp r.r_id (Lazy.force doc))
        with Unix.Unix_error _ | Sys_error _ -> c.c_closed <- true)

let upstream_reader t shard uc =
  let rec loop () =
    let raw, frame = Server.Client.recv_raw uc.u in
    let doc = lazy (Server.Client.reply_of_frame frame) in
    let rid =
      match frame with
      | Server.Wire.Bin_verdict { id; _ } -> Json.Int id
      | _ -> Server.Protocol.reply_id (Lazy.force doc)
    in
    (match rid with
    | Json.Int rid -> (
      match take_pending uc rid with
      | Some p ->
        let r = p.p_state in
        ignore (Atomic.fetch_and_add r.r_outstanding (-1));
        (* First reply wins; the loser (if any) is dropped when its
           copy surfaces here or its connection dies. *)
        if not (Atomic.exchange r.r_done true) then begin
          reply_client r raw frame doc;
          (* Only the adaptive hedge delay reads the latency ring. *)
          if t.cfg.hedge = Adaptive then
            record_latency shard ((Obs.Clock.now_s () -. r.r_sent_at) *. 1000.);
          if p.p_hedge then begin
            Atomic.incr shard.hedge_wins;
            Obs.Metrics.incr m_hedge_wins
          end
        end
      | None -> () (* already failed over; the session re-issued *))
    | _ -> () (* unroutable reply; drop *));
    loop ()
  in
  (try loop () with Failure _ | Unix.Unix_error _ | Sys_error _ -> ());
  fail_uconn shard uc;
  Server.Client.close uc.u

(* [addr_of]/[pool_of] select the primary pool or the follower pool;
   both share the reader, the pending table and the failure path. *)
let get_conn t shard ~follower =
  locked shard.s_lock (fun () ->
      let addr =
        if follower then shard.spec.follower
        else if shard.alive then Some shard.target
        else None
      in
      match addr with
      | None -> None
      | Some addr ->
        (* [fail_uconn] drops a dead connection from its pool under
           this lock, so every pooled connection is live. *)
        let pool = if follower then shard.f_pool else shard.pool in
        let n = Array.length pool in
        let cursor = if follower then shard.f_next else shard.next_conn in
        let bump () =
          if follower then shard.f_next <- shard.f_next + 1
          else shard.next_conn <- shard.next_conn + 1
        in
        if n >= t.cfg.pool_size then begin
          let uc = pool.(cursor mod n) in
          bump ();
          Some uc
        end
        else
          match Server.Client.connect ~transport:t.cfg.shard_transport addr with
          | u ->
            let uc =
              {
                u;
                u_send = Mutex.create ();
                u_pending = Hashtbl.create 16;
                u_plock = Mutex.create ();
                u_dead = false;
                u_reader = None;
              }
            in
            uc.u_reader <- Some (Thread.create (fun () -> upstream_reader t shard uc) ());
            if follower then shard.f_pool <- Array.append [| uc |] shard.f_pool
            else shard.pool <- Array.append [| uc |] shard.pool;
            bump ();
            Some uc
          | exception (Unix.Unix_error _ | Failure _ | Sys_error _) -> None)

let get_uconn t shard = get_conn t shard ~follower:false

(* ----------------------------- forwarding -------------------------- *)

(* [deadline_override], when given, replaces the request's stamped
   deadline with the *remaining* budget — the hedge path computes it
   from the absolute deadline so a re-issued request never tells the
   follower it has the full original allowance.  A request kept as
   the client's raw frame is sent as those bytes, with the rid (and
   any override) written into them. *)
let send_upstream ?deadline_override uc ~rid r =
  let dl orig = match deadline_override with Some _ -> deadline_override | None -> orig in
  locked uc.u_send (fun () ->
      match (r.r_raw, r.r_req) with
      | Some raw, _ ->
        Server.Wire.set_id raw rid;
        Option.iter (fun ms -> Server.Wire.set_deadline_ms raw (Some ms)) deadline_override;
        Server.Client.send_raw uc.u raw
      | None, Server.Protocol.Analyze { mu; tmat; deadline_ms } ->
        Server.Client.send_analyze uc.u ~id:rid ?deadline_ms:(dl deadline_ms) ~mu tmat
      | None, Server.Protocol.Search { algorithm; mu; s; pareto; array_dim; deadline_ms } ->
        Server.Client.send uc.u
          (Server.Protocol.search ~id:(Json.Int rid) ?deadline_ms:(dl deadline_ms) ?s
             ~pareto ~array_dim ~algorithm ~mu ())
      | None, Server.Protocol.Simulate { algorithm; mu; s; pi } ->
        Server.Client.send uc.u
          (Server.Protocol.simulate ~id:(Json.Int rid) ?s ~algorithm ~mu ~pi ())
      | None, Server.Protocol.Replay { instance } ->
        Server.Client.send uc.u (Server.Protocol.replay ~id:(Json.Int rid) instance)
      | ( None,
          ( Server.Protocol.Ship _ | Server.Protocol.Ping | Server.Protocol.Stats
          | Server.Protocol.Drain | Server.Protocol.Hello _ ) ) ->
        invalid_arg "Router.send_upstream: inline op")

let shed shard c ~id detail =
  Atomic.incr shard.shed;
  Obs.Metrics.incr m_shed;
  send_client c (Server.Protocol.error_reply ~id ~code:"overloaded" ~detail)

let request_deadline_ms : Server.Protocol.request -> int option = function
  | Server.Protocol.Analyze { deadline_ms; _ } -> deadline_ms
  | Server.Protocol.Search { deadline_ms; _ } -> deadline_ms
  | _ -> None

(* [raw] is the client's own ['A'] frame for [req]; it is forwarded as
   is whenever the shards speak the binary transport. *)
let forward t c ~id ?raw shard req =
  if Fault.should_fail "route.forward" then
    shed shard c ~id "fault injected: route.forward"
  else begin
    let is_analyze = match req with Server.Protocol.Analyze _ -> true | _ -> false in
    let has_follower =
      shard.spec.follower <> None && not (locked shard.s_lock (fun () -> shard.promoted))
    in
    (* Breaker open: the shard is up but slow — divert its analyze
       traffic to the follower (same bytes, deterministic verdicts)
       while the monitor probes it back in. *)
    let divert = is_analyze && has_follower && Health.state shard.health = Health.Open in
    let conn =
      if divert then
        match get_conn t shard ~follower:true with
        | Some uc -> Some uc
        | None -> get_uconn t shard
      else get_uconn t shard
    in
    match conn with
    | None -> shed shard c ~id (Printf.sprintf "shard %d unavailable" shard.idx)
    | Some uc -> (
      let rid = Atomic.fetch_and_add t.next_rid 1 in
      let now = Obs.Clock.now_s () in
      let r =
        {
          r_client = c;
          r_id = id;
          r_req = req;
          r_raw = (if t.cfg.shard_transport = Server.Wire.V2 then raw else None);
          r_deadline =
            (match request_deadline_ms req with
            | Some d -> now +. (float_of_int d /. 1000.)
            | None -> Float.nan);
          r_sent_at = now;
          r_done = Atomic.make false;
          r_hedged = Atomic.make false;
          r_outstanding = Atomic.make 1;
          r_shard = shard;
        }
      in
      let hedgeable = is_analyze && has_follower && (not divert) && hedging_active t in
      locked uc.u_plock (fun () ->
          Hashtbl.replace uc.u_pending rid { p_state = r; p_hedge = false });
      match send_upstream uc ~rid r with
      | () ->
        Atomic.incr shard.forwarded;
        Obs.Metrics.incr m_forwarded;
        (* Registered only once the primary copy is written: a hedge
           patches the same raw bytes. *)
        if hedgeable then locked t.i_lock (fun () -> Hashtbl.replace t.inflight rid r)
      | exception (Unix.Unix_error _ | Sys_error _ | Failure _) ->
        let mine = take_pending uc rid <> None in
        fail_uconn shard uc;
        if mine then begin
          Atomic.set r.r_done true;
          ignore (Atomic.fetch_and_add r.r_outstanding (-1));
          shed shard c ~id (Printf.sprintf "shard %d write failed" shard.idx)
        end)
  end

(* Round-robin over live shards for the ops that carry no key; shards
   whose breaker is closed are preferred, so a gray shard only sees
   stateless traffic when every alternative is at least as sick. *)
let pick_rr t =
  let n = Array.length t.shards in
  let pick pred =
    let rec go tries =
      if tries = n then None
      else
        let s = t.shards.(Atomic.fetch_and_add t.rr 1 mod n) in
        if pred s then Some s else go (tries + 1)
    in
    go 0
  in
  match pick (fun s -> s.alive && Health.state s.health = Health.Closed) with
  | Some s -> Some s
  | None -> pick (fun s -> s.alive)

(* ------------------------------ hedging ---------------------------- *)

(* Token bucket: capacity [hedge_budget], refilling a full budget per
   second — a bound on sustained hedge rate, not a per-request gate.
   An empty bucket just skips this tick; the entry stays scannable. *)
let take_hedge_token t =
  let cap = float_of_int t.cfg.hedge_budget in
  locked t.h_lock (fun () ->
      let now = Obs.Clock.now_s () in
      let dt = Float.max 0. (now -. t.h_refill_at) in
      t.h_refill_at <- now;
      t.h_tokens <- Float.min cap (t.h_tokens +. (dt *. cap));
      if t.h_tokens >= 1. then begin
        t.h_tokens <- t.h_tokens -. 1.;
        true
      end
      else false)

let hedge_tick t =
  let now = Obs.Clock.now_s () in
  let entries =
    locked t.i_lock (fun () ->
        Hashtbl.fold (fun k r acc -> (k, r) :: acc) t.inflight [])
  in
  List.iter
    (fun (k, r) ->
      let drop () = locked t.i_lock (fun () -> Hashtbl.remove t.inflight k) in
      if Atomic.get r.r_done || Atomic.get r.r_hedged then drop ()
      else begin
        let elapsed_ms = (now -. r.r_sent_at) *. 1000. in
        if elapsed_ms >= hedge_delay_ms t r.r_shard then begin
          let shard = r.r_shard in
          let remaining =
            if Float.is_nan r.r_deadline then None
            else Some (int_of_float ((r.r_deadline -. now) *. 1000.))
          in
          let eligible =
            (match remaining with Some ms -> ms > 0 | None -> true)
            && locked shard.s_lock (fun () -> shard.alive && not shard.promoted)
            && shard.spec.follower <> None
          in
          if not eligible then drop ()
          else if take_hedge_token t then begin
            Atomic.set r.r_hedged true;
            drop ();
            match get_conn t shard ~follower:true with
            | None -> () (* follower unreachable: the primary copy stands alone *)
            | Some uc -> (
              let rid = Atomic.fetch_and_add t.next_rid 1 in
              Atomic.incr r.r_outstanding;
              locked uc.u_plock (fun () ->
                  Hashtbl.replace uc.u_pending rid { p_state = r; p_hedge = true });
              match send_upstream ?deadline_override:remaining uc ~rid r with
              | () ->
                Atomic.incr shard.hedges;
                Obs.Metrics.incr m_hedges
              | exception (Unix.Unix_error _ | Sys_error _ | Failure _) ->
                let mine = take_pending uc rid <> None in
                fail_uconn shard uc;
                if mine then ignore (Atomic.fetch_and_add r.r_outstanding (-1)))
          end
          (* else: bucket empty — retry next tick *)
        end
      end)
    entries

let hedger t =
  while not (Atomic.get t.stopping) do
    Thread.delay 0.001;
    hedge_tick t
  done

(* ---------------------------- promotion ---------------------------- *)

let promote_shard t idx =
  if idx < 0 || idx >= Array.length t.shards then
    invalid_arg "Router.promote_shard: no such shard";
  let shard = t.shards.(idx) in
  let already =
    locked shard.s_lock (fun () ->
        if shard.promoted then true
        else begin
          shard.alive <- false;
          false
        end)
  in
  if already then shard.alive
  else begin
    let pools = locked shard.s_lock (fun () -> Array.append shard.pool shard.f_pool) in
    Array.iter (fun uc -> fail_uconn shard uc) pools;
    match shard.spec.follower with
    | None -> false (* no replica: the shard stays down *)
    | Some follower ->
      (* Catch the follower up from the primary's journal before any
         request is redirected: every record the dead primary acked
         (and drain-flushed) must be queryable on the follower first —
         the zero-lost-acked-writes half of the failover contract. *)
      (match shard.shipper with
      | Some sh -> ignore (Shipper.catch_up sh)
      | None -> ());
      locked shard.s_lock (fun () ->
          shard.target <- follower;
          shard.promoted <- true;
          shard.alive <- true);
      locked t.lock (fun () -> t.promotions <- t.promotions + 1);
      Obs.Metrics.incr m_promotions;
      true
  end

(* ------------------------------ monitor ---------------------------- *)

let probe addr =
  match Server.Client.connect ~transport:Server.Wire.V1 addr with
  | exception (Unix.Unix_error _ | Failure _ | Sys_error _) -> false
  | c ->
    let ok =
      match Server.Client.request c (Server.Protocol.ping ()) with
      | reply -> Server.Protocol.reply_ok reply
      | exception (Unix.Unix_error _ | Failure _ | Sys_error _) -> false
    in
    Server.Client.close c;
    ok

let monitor t =
  let interval = float_of_int t.cfg.health_interval_ms /. 1000. in
  let rec sleep left =
    if left > 0. && not (Atomic.get t.stopping) then begin
      let d = Float.min left 0.05 in
      Thread.delay d;
      sleep (left -. d)
    end
  in
  while not (Atomic.get t.stopping) do
    sleep interval;
    if not (Atomic.get t.stopping) then begin
      Array.iter
        (fun shard ->
          (match shard.shipper with
          | Some sh when not shard.promoted -> ignore (Shipper.pump sh)
          | _ -> ());
          if shard.alive && not shard.promoted then begin
            let t0 = Obs.Clock.now_s () in
            let ok = probe shard.target in
            let latency_ms = (Obs.Clock.now_s () -. t0) *. 1000. in
            match Health.note shard.health ~latency_ms ~ok () with
            | `Failed -> ignore (promote_shard t shard.idx)
            | `Opened ->
              ignore
                (Obs.Warn.once "router.breaker_open"
                   (Printf.sprintf "shard %d breaker opened (ewma %.1f ms)"
                      shard.idx (Health.ewma_ms shard.health)))
            | `Recovered | `Ok -> ()
          end)
        t.shards;
      let open_count =
        Array.fold_left
          (fun acc s -> if Health.state s.health <> Health.Closed then acc + 1 else acc)
          0 t.shards
      in
      Obs.Metrics.set_gauge g_breaker (float_of_int open_count)
    end
  done

(* ------------------------- drain and stats ------------------------- *)

let wake t =
  try ignore (Unix.write t.pipe_w (Bytes.of_string "d") 0 1)
  with Unix.Unix_error _ -> ()

let initiate_drain t = if not (Atomic.exchange t.stopping true) then wake t

let stats_fields t =
  let shards =
    Array.to_list
      (Array.map
         (fun s ->
           locked s.s_lock (fun () ->
               Json.Obj
                 [
                   ("shard", Json.Int s.idx);
                   ("target", Json.Str (addr_string s.target));
                   ("alive", Json.Bool s.alive);
                   ("promoted", Json.Bool s.promoted);
                   ("pool", Json.Int (Array.length s.pool));
                   ("follower_pool", Json.Int (Array.length s.f_pool));
                   ("forwarded", Json.Int (Atomic.get s.forwarded));
                   ("shed", Json.Int (Atomic.get s.shed));
                   ("hedges", Json.Int (Atomic.get s.hedges));
                   ("hedge_wins", Json.Int (Atomic.get s.hedge_wins));
                   ("breaker", Json.Str (Health.state_name s.health));
                   ("ewma_ms", Json.Float (Health.ewma_ms s.health));
                   ("health_failures", Json.Int (Health.failures s.health));
                   ( "watermark",
                     Json.Int
                       (match s.shipper with Some sh -> Shipper.watermark sh | None -> 0)
                   );
                 ]))
         t.shards)
  in
  let accepted, promotions = locked t.lock (fun () -> (t.accepted, t.promotions)) in
  let hedges, hedge_wins =
    Array.fold_left
      (fun (h, w) s -> (h + Atomic.get s.hedges, w + Atomic.get s.hedge_wins))
      (0, 0) t.shards
  in
  [
    ("role", Json.Str "router");
    ("shards", Json.Arr shards);
    ("vnodes", Json.Int t.cfg.vnodes);
    ("accepted", Json.Int accepted);
    ("promotions", Json.Int promotions);
    ("hedges", Json.Int hedges);
    ("hedge_wins", Json.Int hedge_wins);
    ("draining", Json.Bool (Atomic.get t.stopping));
    ("max_transport", Json.Str (Server.Wire.version_name t.cfg.max_transport));
  ]

(* ----------------------------- requests ---------------------------- *)

let version_rank = function Server.Wire.V1 -> 1 | Server.Wire.V2 -> 2

let handle_request t c ~id ?raw (req : Server.Protocol.request) =
  match req with
  | Server.Protocol.Ping -> send_client c (Server.Protocol.ok_reply ~id ~op:"ping" [])
  | Server.Protocol.Stats ->
    send_client c (Server.Protocol.ok_reply ~id ~op:"stats" (stats_fields t))
  | Server.Protocol.Drain ->
    send_client c
      (Server.Protocol.ok_reply ~id ~op:"drain" [ ("draining", Json.Bool true) ]);
    initiate_drain t
  | Server.Protocol.Hello { transport } -> (
    match Server.Wire.version_of_name transport with
    | Some v when version_rank v <= version_rank t.cfg.max_transport ->
      (* Ack in the current dialect, then switch both directions —
         same switch point as the daemon's. *)
      locked c.c_olock (fun () ->
          if not c.c_closed then begin
            (try
               write_doc c
                 (Server.Protocol.ok_reply ~id ~op:"hello"
                    [ ("transport", Json.Str (Server.Wire.version_name v)) ])
             with Unix.Unix_error _ | Sys_error _ -> c.c_closed <- true);
            c.c_version <- v
          end);
      Server.Wire.set_version c.c_dec v
    | Some _ | None ->
      send_client c
        (Server.Protocol.error_reply ~id ~code:"bad_request"
           ~detail:(Printf.sprintf "unknown or disabled transport %S" transport)))
  | Server.Protocol.Ship _ ->
    send_client c
      (Server.Protocol.error_reply ~id ~code:"bad_request"
         ~detail:"ship is shard-direct; the router does not replicate")
  | Server.Protocol.Analyze { tmat; _ } ->
    let shard = t.shards.(Ring.shard_of t.ring (Server.Store.family_hash tmat)) in
    forward t c ~id ?raw shard req
  | Server.Protocol.Search _ | Server.Protocol.Simulate _ | Server.Protocol.Replay _
    -> (
    match pick_rr t with
    | Some shard -> forward t c ~id shard req
    | None ->
      send_client c
        (Server.Protocol.error_reply ~id ~code:"overloaded" ~detail:"no live shards"))

(* --------------------------- client serving ------------------------ *)

let handle_frame t c raw = function
  | Server.Wire.Text line -> (
    match Server.Protocol.request_of_line line with
    | Ok env -> handle_request t c ~id:env.Server.Protocol.id env.Server.Protocol.req
    | Error msg ->
      send_client c (Server.Protocol.error_reply ~id:Json.Null ~code:"bad_request" ~detail:msg))
  | Server.Wire.Bin_analyze { id; deadline_ms; mu; tmat } ->
    (* Decoded once, for the ring hash; the bytes go upstream as is. *)
    handle_request t c ~id:(Json.Int id) ~raw
      (Server.Protocol.Analyze { mu; tmat; deadline_ms })
  | Server.Wire.Bin_verdict _ ->
    send_client c
      (Server.Protocol.error_reply ~id:Json.Null ~code:"bad_request"
         ~detail:"unexpected verdict frame from a client")

let rec pull_frames t c =
  match Server.Wire.next_raw c.c_dec with
  | Server.Wire.Need_more -> true
  | Server.Wire.Corrupt msg ->
    send_client c (Server.Protocol.error_reply ~id:Json.Null ~code:"parse_error" ~detail:msg);
    false
  | Server.Wire.Frame (raw, f) ->
    handle_frame t c raw f;
    pull_frames t c

let serve_client t c =
  let buf = Bytes.create 8192 in
  let rec loop () =
    match Unix.read c.c_fd buf 0 (Bytes.length buf) with
    | 0 -> ()
    | n ->
      Server.Wire.feed c.c_dec buf 0 n;
      if pull_frames t c then loop ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | exception (Unix.Unix_error _ | Sys_error _) -> ()
  in
  (try loop () with _ -> ());
  close_client t c

(* ------------------------------- run ------------------------------- *)

let run t =
  let mon = Thread.create monitor t in
  let hed = if hedging_active t then Some (Thread.create hedger t) else None in
  let rec accept_loop () =
    if not (Atomic.get t.stopping) then begin
      (match Unix.select [ t.listen_fd; t.pipe_r ] [] [] (-1.) with
      | ready, _, _ ->
        if List.mem t.pipe_r ready then begin
          (* A wake-up IS a drain request — signal handlers may only
             write the pipe (same contract as the daemon's loop). *)
          (let b = Bytes.create 16 in
           try ignore (Unix.read t.pipe_r b 0 16) with Unix.Unix_error _ -> ());
          Atomic.set t.stopping true
        end;
        if (not (Atomic.get t.stopping)) && List.mem t.listen_fd ready then (
          match Unix.accept t.listen_fd with
          | fd, _ ->
            let c =
              {
                c_fd = fd;
                c_dec = Server.Wire.decoder Server.Wire.V1;
                c_olock = Mutex.create ();
                c_version = Server.Wire.V1;
                c_closed = false;
              }
            in
            let th = Thread.create (fun () -> serve_client t c) () in
            locked t.lock (fun () ->
                t.accepted <- t.accepted + 1;
                t.clients <- (c, th) :: t.clients)
          | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      accept_loop ()
    end
  in
  accept_loop ();
  (* Drain: stop listening, hang up on clients (shutdown wakes their
     blocked reads), push the final journal tail, then dismantle the
     upstream pools reader-first. *)
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (match t.sock_path with
  | Some path -> ( try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
  | None -> ());
  let clients = locked t.lock (fun () -> t.clients) in
  List.iter
    (fun (c, _) -> try Unix.shutdown c.c_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    clients;
  List.iter (fun (_, th) -> Thread.join th) clients;
  Thread.join mon;
  Option.iter Thread.join hed;
  Array.iter
    (fun shard ->
      let pools = locked shard.s_lock (fun () -> Array.append shard.pool shard.f_pool) in
      Array.iter (fun uc -> fail_uconn shard uc) pools;
      Array.iter
        (fun uc -> match uc.u_reader with Some th -> Thread.join th | None -> ())
        pools;
      match shard.shipper with
      | Some sh ->
        if not shard.promoted then ignore (Shipper.pump sh);
        Shipper.close sh
      | None -> ())
    t.shards;
  (try Unix.close t.pipe_r with Unix.Unix_error _ -> ());
  (try Unix.close t.pipe_w with Unix.Unix_error _ -> ())
