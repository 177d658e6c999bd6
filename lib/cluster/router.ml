(* The cluster router: one process that makes N daemon shards look
   like one daemon (docs/CLUSTER.md).

   One thread runs everything that touches a socket: the shared event
   loop ({!Server.Loop}) owns the accepted client connections and the
   upstream pool connections alike.  Downstream it speaks the same
   versioned wire protocol as the daemon — v1 JSON lines by default,
   v2 binary after a [hello].  Upstream it keeps a small pool of
   pipelined v2 connections per shard; each forwarded request carries
   a router-unique integer id, and the client's own id waits in the
   pool connection's pending table until the reply comes back.  Binary
   analyze traffic is never re-encoded: a client's ['A'] frame goes
   upstream as it arrived with the router id patched in, and the
   shard's ['V'] reply comes back the same way with the client's id.
   JSON requests travel as JSON documents with the id (and, for a
   hedge, the deadline) restamped, so the reply follows the request's
   dialect — the daemon's own rule.  [analyze] routes by the
   matrix-only family hash through the consistent-hash {!Ring} (so
   the content key and its mu-parametric family stay on one shard);
   the stateless ops round-robin over live shards;
   [ping]/[stats]/[drain]/[hello] answer inline; [ship] is rejected —
   it is the replication channel, shard-direct by contract.

   Gray-failure machinery (docs/RESILIENCE.md):

   - every in-flight request is one [reqstate] shared by however many
     upstream copies exist; [r_done] is the first-wins latch,
     [r_outstanding] counts copies still parked so a lost connection
     only errors the client when the *last* copy dies;
   - while hedgeable analyze requests are in flight a 1 ms loop timer
     scans them; once one has waited longer than the hedge delay
     (fixed, or adaptive: 2x the shard's observed p99), it is
     re-issued on the shard's follower with the *remaining* deadline
     restamped, guarded by a token bucket so a melting shard cannot
     double the fleet's load;
   - the monitor times its pings and feeds latency into {!Health}'s
     EWMA circuit breaker; while a shard's breaker is [Open] its
     analyze traffic diverts to the follower, and [pick_rr] prefers
     shards whose breaker is closed.

   Hedging is byte-safe because verdicts are deterministic: primary
   and follower produce identical bytes for the same analyze, so
   taking the first reply never changes an answer.

   Failover: the monitor, the one helper thread (its probes and
   journal shipping block), pings every shard each health interval
   and pumps its journal {!Shipper}; when {!Health} reports the
   threshold crossing, the shard's follower is caught up from the
   primary's journal and promoted in place.  {!promote_shard} exposes
   the same transition synchronously for the chaos harness, which
   needs the kill -> promote sequence at a deterministic point in its
   request stream.

   Locking: the monitor and the loop share only each shard's failover
   state — [target], [alive], [promoted], [gen] and its {!Health} —
   under that shard's [s_lock].  Everything else (pools, pending
   tables, request states, the hedge table and bucket, the latency
   ring, the counters) belongs to the loop thread and takes no lock.
   A failover transition bumps [gen] and wakes the loop, which closes
   the pools opened under an older [gen] before it forwards anything
   else.  Fault sites: [route.forward] (class [cluster]) is consulted
   once per forwarded request, on the loop thread in the order the
   requests are read, so a single-driver chaos run consults it at a
   seed-reproducible sequence; hedge re-issues never consult it (they
   are not part of the seeded request stream). *)

module Loop = Server.Loop
module Wire = Server.Wire
module Protocol = Server.Protocol

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
  max_transport : Wire.version;
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
    max_transport = Wire.V2;
    health_interval_ms = 1000;
    health_threshold = 3;
    vnodes = 64;
    hedge = Adaptive;
    hedge_budget = 64;
    latency_limit_ms = 500.;
  }

(* What goes upstream: the client's own ['A'] frame, or its JSON
   document. *)
type body = Raw of Wire.raw | Doc of Json.t

(* One forwarded request; shared by every upstream copy (primary send
   plus any hedge). *)
type reqstate = {
  r_client : Loop.conn;
  r_id : Json.t;
  r_body : body;
  r_deadline : float;  (* absolute, {!Obs.Clock} seconds; nan = no deadline *)
  r_sent_at : float;   (* {!Obs.Clock} seconds *)
  r_shard : shard;
  mutable r_done : bool;
  mutable r_hedged : bool;
  mutable r_outstanding : int;
}

and pending = { p_state : reqstate; p_hedge : bool }

and uconn = { u : Loop.conn; u_pending : (int, pending) Hashtbl.t }

and shard = {
  idx : int;
  spec : shard_spec;
  health : Health.t;
  shipper : Shipper.t option;
  (* Failover state, shared with the monitor under [s_lock]. *)
  s_lock : Mutex.t;
  mutable target : Server.Client.addr;
  mutable alive : bool;
  mutable promoted : bool;
  mutable gen : int;  (* bumped by every failover transition *)
  (* Loop thread only. *)
  mutable pool_gen : int;        (* the [gen] the pools were opened under *)
  mutable pool : uconn array;    (* live connections only *)
  mutable f_pool : uconn array;  (* follower pool: hedges + breaker diverts *)
  mutable next_conn : int;
  mutable f_next : int;
  mutable forwarded : int;
  mutable shed : int;
  mutable hedges : int;
  mutable hedge_wins : int;
  lat : float array;  (* ring of recent first-reply latencies, ms *)
  mutable lat_n : int;
}

type t = {
  cfg : config;
  ring : Ring.t;
  shards : shard array;
  listen_fd : Unix.file_descr;
  loop : Loop.t;
  stopping : bool Atomic.t;  (* read by the monitor *)
  (* Loop thread only. *)
  mutable next_rid : int;
  mutable rr : int;  (* round-robin cursor for the stateless ops *)
  mutable accepted : int;
  inflight : (int, reqstate) Hashtbl.t;  (* hedgeable requests, by primary rid *)
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

let addr_string : Server.Client.addr -> string = function
  | `Unix path -> "unix:" ^ path
  | `Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

(* ------------------------------ create ----------------------------- *)

let create (cfg : config) =
  if cfg.shards = [] then invalid_arg "Router.create: no shards";
  if cfg.pool_size < 1 then invalid_arg "Router.create: pool_size must be >= 1";
  let listen_fd = Loop.bind cfg.listen in
  let shards =
    Array.of_list
      (List.mapi
         (fun idx spec ->
           {
             idx;
             spec;
             health =
               Health.create ~threshold:cfg.health_threshold
                 ~latency_limit_ms:cfg.latency_limit_ms ();
             shipper =
               (match (spec.journal, spec.follower) with
               | Some journal, Some follower ->
                 Some (Shipper.create ~journal ~follower ())
               | _ -> None);
             s_lock = Mutex.create ();
             target = spec.primary;
             alive = true;
             promoted = false;
             gen = 0;
             pool_gen = 0;
             pool = [||];
             f_pool = [||];
             next_conn = 0;
             f_next = 0;
             forwarded = 0;
             shed = 0;
             hedges = 0;
             hedge_wins = 0;
             lat = Array.make 64 0.;
             lat_n = 0;
           })
         cfg.shards)
  in
  {
    cfg;
    ring = Ring.make ~vnodes:cfg.vnodes (Array.length shards);
    shards;
    listen_fd;
    loop = Loop.create ();
    stopping = Atomic.make false;
    next_rid = 1;
    rr = 0;
    accepted = 0;
    inflight = Hashtbl.create 64;
    h_tokens = float_of_int (max 0 cfg.hedge_budget);
    h_refill_at = Obs.Clock.now_s ();
  }

let ring t = t.ring
let port t = Loop.port t.listen_fd

(* ----------------------------- replies ----------------------------- *)

let send_doc t c doc =
  Loop.send t.loop c ~defer:true (fun v -> Wire.encode v (Wire.Text (Json.to_string doc)))

(* Replace the [fields] that [doc] has, prepend the ones it lacks. *)
let restamp doc fields =
  match doc with
  | Json.Obj kvs ->
    let kvs = List.map (fun (k, v) -> (k, Option.value (List.assoc_opt k fields) ~default:v)) kvs in
    Json.Obj (List.filter (fun (k, _) -> not (List.mem_assoc k kvs)) fields @ kvs)
  | j -> j

(* A ['V'] verdict only ever answers an ['A'] request, so it goes back
   as the shard sent it, with the client's id patched in — unless the
   client switched back to JSON while the request was in flight, which
   gets the equivalent document.  Every other reply is the shard's
   JSON document, restamped. *)
let reply_client t r raw frame doc =
  match frame with
  | Wire.Bin_verdict { verdict; store; _ } ->
    Loop.send t.loop r.r_client ~defer:true (fun version ->
        match (version, r.r_id) with
        | Wire.V2, Json.Int id ->
          Wire.set_id raw id;
          Bytes.unsafe_to_string (Wire.raw_bytes raw)
        | _ ->
          Wire.encode version
            (Wire.Text
               (Json.to_string
                  (Protocol.ok_reply ~id:r.r_id ~op:"analyze"
                     (Server.Handlers.fields_of_analyze (verdict, store))))))
  | _ -> send_doc t r.r_client (restamp doc [ ("id", r.r_id) ])

(* --------------------------- latency ring -------------------------- *)

let record_latency shard ms =
  shard.lat.(shard.lat_n mod Array.length shard.lat) <- ms;
  shard.lat_n <- shard.lat_n + 1

let ring_p99 shard =
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
    let p99 = ring_p99 shard in
    if p99 <= 0. then 10. else Float.max 1. (2. *. p99)

(* --------------------------- upstream pool ------------------------- *)

(* A lost connection completes each parked request with a retriable
   [overloaded] only when the dying copy was its *last* outstanding
   one — a hedged request whose other copy is still parked elsewhere
   just loses a redundant leg. *)
let fail_uconn t shard pending u =
  let keep a = Array.of_list (List.filter (fun uc -> uc.u != u) (Array.to_list a)) in
  shard.pool <- keep shard.pool;
  shard.f_pool <- keep shard.f_pool;
  Hashtbl.iter
    (fun _ p ->
      let r = p.p_state in
      r.r_outstanding <- r.r_outstanding - 1;
      if r.r_outstanding <= 0 && not r.r_done then begin
        r.r_done <- true;
        send_doc t r.r_client
          (Protocol.error_reply ~id:r.r_id ~code:"overloaded"
             ~detail:(Printf.sprintf "shard %d connection lost" shard.idx))
      end)
    pending;
  Hashtbl.reset pending

let on_reply t pending raw frame =
  let rid, doc =
    match frame with
    | Wire.Bin_verdict { id; _ } -> (id, Json.Null)
    | Wire.Text line -> (
      match Json.parse line with
      | Ok doc -> ((match Protocol.reply_id doc with Json.Int rid -> rid | _ -> -1), doc)
      | Error _ -> (-1, Json.Null))
    | Wire.Bin_analyze _ -> (-1, Json.Null)
  in
  match Hashtbl.find_opt pending rid with
  | None -> () (* unroutable, or its copy was already failed over *)
  | Some p ->
    Hashtbl.remove pending rid;
    let r = p.p_state in
    r.r_outstanding <- r.r_outstanding - 1;
    (* First reply wins; the loser (if any) is dropped when its copy
       surfaces here or its connection dies. *)
    if not r.r_done then begin
      r.r_done <- true;
      reply_client t r raw frame doc;
      (* Only the adaptive hedge delay reads the latency ring. *)
      if t.cfg.hedge = Adaptive then
        record_latency r.r_shard ((Obs.Clock.now_s () -. r.r_sent_at) *. 1000.);
      if p.p_hedge then begin
        r.r_shard.hedge_wins <- r.r_shard.hedge_wins + 1;
        Obs.Metrics.incr m_hedge_wins
      end
    end

(* The first frame on a pool connection is the shard's ack of the
   router's [hello], still in JSON; everything after it is v2. *)
let upstream_read t pending u chunk n =
  Wire.feed u.Loop.dec chunk 0 n;
  let rec pull () =
    if not u.Loop.dead then
      match Wire.next_raw u.Loop.dec with
      | Wire.Need_more -> ()
      | Wire.Corrupt _ -> Loop.close t.loop u
      | Wire.Frame (_, Wire.Text ack) when Wire.decoder_version u.Loop.dec = Wire.V1 -> (
        match Json.parse ack with
        | Ok doc when Protocol.reply_ok doc ->
          Wire.set_version u.Loop.dec Wire.V2;
          pull ()
        | _ -> Loop.close t.loop u)
      | Wire.Frame (raw, frame) ->
        on_reply t pending raw frame;
        pull ()
  in
  pull ()

(* The hello goes first and everything queued behind it is already
   binary: the shard switches its decoder right after acking, so the
   router never waits a round trip for the negotiation. *)
let open_uconn t shard addr =
  let fd = Server.Client.dial addr in
  let pending = Hashtbl.create 16 in
  let u =
    Loop.add t.loop fd ~on_read:(upstream_read t pending)
      ~on_close:(fail_uconn t shard pending) ()
  in
  Loop.send t.loop u ~defer:true ~switch:Wire.V2 (fun v ->
      Wire.encode v
        (Wire.Text (Json.to_string (Protocol.hello ~transport:(Wire.version_name Wire.V2) ()))));
  { u; u_pending = pending }

(* Round-robin over the pool, opening connections until it holds
   [pool_size]; [None] when the address does not answer. *)
let get_conn t shard ~follower addr =
  let pool = if follower then shard.f_pool else shard.pool in
  let cursor = if follower then shard.f_next else shard.next_conn in
  if follower then shard.f_next <- cursor + 1 else shard.next_conn <- cursor + 1;
  let n = Array.length pool in
  if n >= t.cfg.pool_size then Some pool.(cursor mod n)
  else
    match open_uconn t shard addr with
    | uc ->
      if follower then shard.f_pool <- Array.append [| uc |] shard.f_pool
      else shard.pool <- Array.append [| uc |] shard.pool;
      Some uc
    | exception (Unix.Unix_error _ | Failure _ | Sys_error _ | Not_found) -> None

let retire t shard =
  Array.iter (fun uc -> Loop.close t.loop uc.u) (Array.append shard.pool shard.f_pool)

(* Pools opened under an older [gen] are closed before anything else
   is sent. *)
let retire_stale t shard gen =
  if gen <> shard.pool_gen then begin
    shard.pool_gen <- gen;
    retire t shard
  end

(* The loop's check after every wake-up. *)
let sync t shard =
  Mutex.lock shard.s_lock;
  let gen = shard.gen in
  Mutex.unlock shard.s_lock;
  retire_stale t shard gen

type view = {
  v_alive : bool;
  v_target : Server.Client.addr;
  v_follower : Server.Client.addr option;  (* [None] once promoted *)
  v_breaker : Health.breaker;
}

(* One read of the failover state the monitor shares, before each
   forward and hedge. *)
let view t shard =
  Mutex.lock shard.s_lock;
  let gen = shard.gen
  and v =
    {
      v_alive = shard.alive;
      v_target = shard.target;
      v_follower = (if shard.promoted then None else shard.spec.follower);
      v_breaker = Health.state shard.health;
    }
  in
  Mutex.unlock shard.s_lock;
  retire_stale t shard gen;
  v

(* ----------------------------- forwarding -------------------------- *)

(* Park one upstream copy of [r] on [uc] under a fresh router id,
   queue it, and return the id.  [deadline], when given, replaces the request's deadline
   with the *remaining* budget — the hedge path computes it from the
   absolute deadline so a re-issued request never tells the follower
   it has the full original allowance.  The bytes are copied into the
   connection's output at once, so a later hedge may patch the same
   frame. *)
let send_copy ?deadline ~hedge t uc r =
  let rid = t.next_rid in
  t.next_rid <- rid + 1;
  Hashtbl.replace uc.u_pending rid { p_state = r; p_hedge = hedge };
  (match r.r_body with
  | Raw raw ->
    Wire.set_id raw rid;
    Option.iter (fun ms -> Wire.set_deadline_ms raw (Some ms)) deadline;
    Loop.send t.loop uc.u ~defer:true (fun _ -> Bytes.unsafe_to_string (Wire.raw_bytes raw))
  | Doc doc ->
    let fields =
      ("id", Json.Int rid)
      :: (match deadline with Some ms -> [ ("deadline_ms", Json.Int ms) ] | None -> [])
    in
    send_doc t uc.u (restamp doc fields));
  rid

let shed t shard c ~id detail =
  shard.shed <- shard.shed + 1;
  Obs.Metrics.incr m_shed;
  send_doc t c (Protocol.error_reply ~id ~code:"overloaded" ~detail)

(* Token bucket: capacity [hedge_budget], refilling a full budget per
   second — a bound on sustained hedge rate, not a per-request gate. *)
let take_hedge_token t now =
  let cap = float_of_int t.cfg.hedge_budget in
  t.h_tokens <- Float.min cap (t.h_tokens +. (Float.max 0. (now -. t.h_refill_at) *. cap));
  t.h_refill_at <- now;
  if t.h_tokens >= 1. then begin
    t.h_tokens <- t.h_tokens -. 1.;
    true
  end
  else false

(* The hedge tick: armed only while [inflight] holds requests.  An
   empty bucket just skips this tick; the entry stays scannable. *)
let rec hedge_tick t () =
  let now = Obs.Clock.now_s () in
  let delays = Array.map (hedge_delay_ms t) t.shards in
  Hashtbl.filter_map_inplace
    (fun _ r ->
      let shard = r.r_shard in
      if r.r_done || r.r_hedged then None
      else if (now -. r.r_sent_at) *. 1000. < delays.(shard.idx) then Some r
      else
        let remaining =
          if Float.is_nan r.r_deadline then None
          else Some (int_of_float ((r.r_deadline -. now) *. 1000.))
        in
        let v = view t shard in
        match v.v_follower with
        | Some follower
          when v.v_alive && match remaining with Some ms -> ms > 0 | None -> true ->
          if not (take_hedge_token t now) then Some r
          else begin
            r.r_hedged <- true;
            (match get_conn t shard ~follower:true follower with
            | None -> () (* follower unreachable: the primary copy stands alone *)
            | Some uc ->
              r.r_outstanding <- r.r_outstanding + 1;
              ignore (send_copy ?deadline:remaining ~hedge:true t uc r);
              shard.hedges <- shard.hedges + 1;
              Obs.Metrics.incr m_hedges);
            None
          end
        | _ -> None)
    t.inflight;
  if Hashtbl.length t.inflight > 0 then arm_hedge t

and arm_hedge t = Loop.set_timer t.loop ~at:(Obs.Clock.now_s () +. 0.001) (hedge_tick t)

let forward t c ~id ~body shard (req : Protocol.request) =
  if Fault.should_fail "route.forward" then shed t shard c ~id "fault injected: route.forward"
  else begin
    let v = view t shard in
    let analyze = match req with Protocol.Analyze _ -> true | _ -> false in
    (* Breaker open: the shard is up but slow — divert its analyze
       traffic to the follower (same bytes, deterministic verdicts)
       while the monitor probes it back in. *)
    let divert = analyze && v.v_follower <> None && v.v_breaker = Health.Open in
    let primary () =
      if v.v_alive then get_conn t shard ~follower:false v.v_target else None
    in
    let conn =
      match v.v_follower with
      | Some follower when divert -> (
        match get_conn t shard ~follower:true follower with
        | Some uc -> Some uc
        | None -> primary ())
      | _ -> primary ()
    in
    match conn with
    | None -> shed t shard c ~id (Printf.sprintf "shard %d unavailable" shard.idx)
    | Some uc ->
      let now = Obs.Clock.now_s () in
      let r =
        {
          r_client = c;
          r_id = id;
          r_body = body;
          r_deadline =
            (match Protocol.deadline_ms req with
            | Some d -> now +. (float_of_int d /. 1000.)
            | None -> Float.nan);
          r_sent_at = now;
          r_shard = shard;
          r_done = false;
          r_hedged = false;
          r_outstanding = 1;
        }
      in
      let rid = send_copy ~hedge:false t uc r in
      shard.forwarded <- shard.forwarded + 1;
      Obs.Metrics.incr m_forwarded;
      if analyze && v.v_follower <> None && (not divert) && hedging_active t then begin
        Hashtbl.replace t.inflight rid r;
        if not (Loop.timer_armed t.loop) then arm_hedge t
      end
  end

(* Round-robin over live shards for the ops that carry no key; shards
   whose breaker is closed are preferred, so a gray shard only sees
   stateless traffic when every alternative is at least as sick. *)
let pick_rr t =
  let n = Array.length t.shards in
  let pick pred =
    let rec go tries =
      if tries = n then None
      else begin
        let s = t.shards.(t.rr mod n) in
        t.rr <- t.rr + 1;
        if pred (view t s) then Some s else go (tries + 1)
      end
    in
    go 0
  in
  match pick (fun v -> v.v_alive && v.v_breaker = Health.Closed) with
  | Some s -> Some s
  | None -> pick (fun v -> v.v_alive)

(* ---------------------------- promotion ---------------------------- *)

(* Any thread.  The state flips under [s_lock] and the loop is woken to
   retire the stale pools; a request the loop reads after this returns
   sees the new [gen] before it is forwarded. *)
let promote_shard t idx =
  if idx < 0 || idx >= Array.length t.shards then
    invalid_arg "Router.promote_shard: no such shard";
  let shard = t.shards.(idx) in
  let already =
    locked shard.s_lock (fun () ->
        if shard.promoted then Some shard.alive
        else begin
          shard.alive <- false;
          shard.gen <- shard.gen + 1;
          None
        end)
  in
  match already with
  | Some alive -> alive
  | None -> (
    Loop.wake t.loop;
    match shard.spec.follower with
    | None -> false (* no replica: the shard stays down *)
    | Some follower ->
      (* Catch the follower up from the primary's journal before any
         request is redirected: every record the dead primary acked
         (and drain-flushed) must be queryable on the follower first —
         the zero-lost-acked-writes half of the failover contract. *)
      Option.iter (fun sh -> ignore (Shipper.catch_up sh)) shard.shipper;
      locked shard.s_lock (fun () ->
          shard.target <- follower;
          shard.promoted <- true;
          shard.alive <- true;
          shard.gen <- shard.gen + 1);
      Obs.Metrics.incr m_promotions;
      Loop.wake t.loop;
      true)

(* ------------------------------ monitor ---------------------------- *)

let probe addr =
  match Server.Client.connect ~transport:Wire.V1 addr with
  | exception (Unix.Unix_error _ | Failure _ | Sys_error _ | Not_found) -> false
  | c ->
    let ok =
      match Server.Client.request c (Protocol.ping ()) with
      | reply -> Protocol.reply_ok reply
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
          let alive, promoted, target =
            locked shard.s_lock (fun () -> (shard.alive, shard.promoted, shard.target))
          in
          (match shard.shipper with
          | Some sh when not promoted -> ignore (Shipper.pump sh)
          | _ -> ());
          if alive && not promoted then begin
            let t0 = Obs.Clock.now_s () in
            let ok = probe target in
            let latency_ms = (Obs.Clock.now_s () -. t0) *. 1000. in
            match
              locked shard.s_lock (fun () -> Health.note shard.health ~latency_ms ~ok ())
            with
            | `Failed -> ignore (promote_shard t shard.idx)
            | `Opened ->
              ignore
                (Obs.Warn.once "router.breaker_open"
                   (Printf.sprintf "shard %d breaker opened (ewma %.1f ms)" shard.idx
                      (locked shard.s_lock (fun () -> Health.ewma_ms shard.health))))
            | `Recovered | `Ok -> ()
          end)
        t.shards;
      let open_count =
        Array.fold_left
          (fun acc s ->
            if locked s.s_lock (fun () -> Health.state s.health) <> Health.Closed then acc + 1
            else acc)
          0 t.shards
      in
      Obs.Metrics.set_gauge g_breaker (float_of_int open_count)
    end
  done

(* ------------------------- drain and stats ------------------------- *)

let wake t = Loop.wake_drain t.loop
let initiate_drain t = if not (Atomic.exchange t.stopping true) then Loop.wake t.loop

(* The loop's counters are read without a lock: from another thread
   they may lag the loop by a few requests. *)
let stats_fields t =
  let shards =
    Array.map
      (fun s ->
        locked s.s_lock (fun () ->
            ( s.promoted,
              Json.Obj
                [
                  ("shard", Json.Int s.idx);
                  ("target", Json.Str (addr_string s.target));
                  ("alive", Json.Bool s.alive);
                  ("promoted", Json.Bool s.promoted);
                  ("pool", Json.Int (Array.length s.pool));
                  ("follower_pool", Json.Int (Array.length s.f_pool));
                  ("forwarded", Json.Int s.forwarded);
                  ("shed", Json.Int s.shed);
                  ("hedges", Json.Int s.hedges);
                  ("hedge_wins", Json.Int s.hedge_wins);
                  ("breaker", Json.Str (Health.state_name s.health));
                  ("ewma_ms", Json.Float (Health.ewma_ms s.health));
                  ("health_failures", Json.Int (Health.failures s.health));
                  ( "watermark",
                    Json.Int (match s.shipper with Some sh -> Shipper.watermark sh | None -> 0)
                  );
                ] )))
      t.shards
  in
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 t.shards in
  [
    ("role", Json.Str "router");
    ("shards", Json.Arr (Array.to_list (Array.map snd shards)));
    ("vnodes", Json.Int t.cfg.vnodes);
    ("accepted", Json.Int t.accepted);
    ( "promotions",
      Json.Int (Array.fold_left (fun n (p, _) -> if p then n + 1 else n) 0 shards) );
    ("hedges", Json.Int (sum (fun s -> s.hedges)));
    ("hedge_wins", Json.Int (sum (fun s -> s.hedge_wins)));
    ("draining", Json.Bool (Atomic.get t.stopping));
    ("max_transport", Json.Str (Wire.version_name t.cfg.max_transport));
  ]

(* ----------------------------- requests ---------------------------- *)

let version_rank = function Wire.V1 -> 1 | Wire.V2 -> 2

let handle_request t c ~id ~body (req : Protocol.request) =
  match req with
  | Protocol.Ping -> send_doc t c (Protocol.ok_reply ~id ~op:"ping" [])
  | Protocol.Stats -> send_doc t c (Protocol.ok_reply ~id ~op:"stats" (stats_fields t))
  | Protocol.Drain ->
    send_doc t c (Protocol.ok_reply ~id ~op:"drain" [ ("draining", Json.Bool true) ]);
    initiate_drain t
  | Protocol.Hello { transport } -> (
    match Wire.version_of_name transport with
    | Some v when version_rank v <= version_rank t.cfg.max_transport ->
      (* Ack in the current dialect, then switch both directions —
         same switch point as the daemon's. *)
      Loop.send t.loop c ~defer:true ~switch:v (fun version ->
          Wire.encode version
            (Wire.Text
               (Json.to_string
                  (Protocol.ok_reply ~id ~op:"hello"
                     [ ("transport", Json.Str (Wire.version_name v)) ]))));
      Wire.set_version c.Loop.dec v
    | Some _ | None ->
      send_doc t c
        (Protocol.error_reply ~id ~code:"bad_request"
           ~detail:(Printf.sprintf "unknown or disabled transport %S" transport)))
  | Protocol.Ship _ ->
    send_doc t c
      (Protocol.error_reply ~id ~code:"bad_request"
         ~detail:"ship is shard-direct; the router does not replicate")
  | Protocol.Analyze { tmat; _ } ->
    forward t c ~id ~body t.shards.(Ring.shard_of t.ring (Server.Store.family_hash tmat)) req
  | Protocol.Search _ | Protocol.Simulate _ | Protocol.Replay _ -> (
    match pick_rr t with
    | Some shard -> forward t c ~id ~body shard req
    | None ->
      send_doc t c (Protocol.error_reply ~id ~code:"overloaded" ~detail:"no live shards"))

(* --------------------------- client serving ------------------------ *)

let handle_frame t c raw = function
  | Wire.Text line -> (
    match Json.parse ~max_bytes:Protocol.max_line_bytes line with
    | Error msg ->
      send_doc t c (Protocol.error_reply ~id:Json.Null ~code:"bad_request" ~detail:msg)
    | Ok doc -> (
      match Protocol.parse_request doc with
      | Ok env -> handle_request t c ~id:env.Protocol.id ~body:(Doc doc) env.Protocol.req
      | Error msg ->
        send_doc t c (Protocol.error_reply ~id:Json.Null ~code:"bad_request" ~detail:msg)))
  | Wire.Bin_analyze { id; deadline_ms; mu; tmat } ->
    (* Decoded once, for the ring hash; the bytes go upstream as is. *)
    handle_request t c ~id:(Json.Int id) ~body:(Raw raw)
      (Protocol.Analyze { mu; tmat; deadline_ms })
  | Wire.Bin_verdict _ ->
    send_doc t c
      (Protocol.error_reply ~id:Json.Null ~code:"bad_request"
         ~detail:"unexpected verdict frame from a client")

let client_read t c chunk n =
  Wire.feed c.Loop.dec chunk 0 n;
  let rec pull () =
    if not c.Loop.closing then
      match Wire.next_raw c.Loop.dec with
      | Wire.Need_more -> ()
      | Wire.Corrupt msg ->
        send_doc t c (Protocol.error_reply ~id:Json.Null ~code:"parse_error" ~detail:msg);
        c.Loop.closing <- true
      | Wire.Frame (raw, f) ->
        handle_frame t c raw f;
        pull ()
  in
  pull ()

(* ------------------------------- run ------------------------------- *)

let run t =
  let loop = t.loop in
  let mon = Thread.create monitor t in
  Loop.listen loop t.listen_fd ~on_accept:(fun fd ->
      t.accepted <- t.accepted + 1;
      ignore (Loop.add loop fd ~on_read:(client_read t) ()));
  let drain_seen = ref false and deadline = ref infinity in
  let step () =
    Array.iter (sync t) t.shards;
    if Atomic.get t.stopping && not !drain_seen then begin
      (* Drain: stop listening, answer every parked request
         [overloaded] (retriable) as its pool closes, then let each
         client's queued replies flush — for at most 5 s — and hang
         up. *)
      drain_seen := true;
      Loop.stop_listening loop;
      (match t.cfg.listen with
      | Server.Daemon.Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
      | Server.Daemon.Tcp _ -> ());
      Hashtbl.reset t.inflight;
      Array.iter (retire t) t.shards;
      List.iter
        (fun c -> if Loop.pending c then c.Loop.closing <- true else Loop.close loop c)
        (Loop.conns loop);
      deadline := Obs.Clock.now_s () +. 5.;
      Loop.set_timer loop ~at:!deadline ignore
    end;
    not (!drain_seen && (Loop.is_empty loop || Obs.Clock.now_s () > !deadline))
  in
  Loop.run loop ~on_drain:(fun () -> initiate_drain t) ~step;
  Loop.close_all loop;
  Thread.join mon;
  (* Push the final journal tail. *)
  Array.iter
    (fun shard ->
      Option.iter
        (fun sh ->
          if not (locked shard.s_lock (fun () -> shard.promoted)) then ignore (Shipper.pump sh);
          Shipper.close sh)
        shard.shipper)
    t.shards;
  Loop.dispose loop
