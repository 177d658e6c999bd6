(** The cluster router: one process that presents N daemon shards as a
    single mapping-query service (docs/CLUSTER.md).

    Threads: {!run} serves every socket from one {!Server.Loop} — the
    daemon's event loop — and starts one helper, the health monitor,
    whatever the number of clients and whether hedging is on.

    Downstream it speaks the daemon's versioned wire protocol — v1
    JSON lines by default, v2 binary after a [hello] — so every
    existing client works against a router unchanged.  Upstream it
    keeps a pool of pipelined v2 connections per shard: each forwarded
    request is restamped with a router-unique integer id, matched back
    through the pool connection's pending table, and restamped with
    the client's original id on the way out.  A client's ['A'] frame
    and the shard's ['V'] reply are passed on as they came, ids
    rewritten in place ({!Server.Wire.set_id}); JSON requests and
    replies travel as JSON documents — the reply follows the
    request's dialect, as in the daemon.

    Placement: [analyze] routes by the {e matrix-only}
    {!Server.Store.family_hash} through the consistent-hash {!Ring},
    so a content key and its mu-parametric family records always live
    on the same shard and the daemon's family fastpath stays
    shard-local.  [search]/[simulate]/[replay] round-robin over live
    shards; [ping]/[stats]/[drain]/[hello] answer inline; [ship] is
    rejected with [bad_request] — replication is shard-direct.

    Failover: the monitor thread pings every shard each
    [health_interval_ms] and pumps its journal {!Shipper} to the
    follower; when {!Health} crosses [health_threshold] consecutive
    failures the shard is promoted — follower caught up from the
    primary's journal, then installed as the target.  Requests that
    race a dead shard earn retriable [overloaded] replies, which
    {!Server.Client.session} re-issues; acked writes never roll back
    (the chaos harness audits exactly this).

    Gray failures (docs/RESILIENCE.md): the monitor times its pings
    and feeds latency into {!Health}'s EWMA circuit breaker.  While a
    shard's breaker is [Open] — up but slow — its [analyze] traffic
    diverts to the follower, and the stateless round-robin prefers
    shards whose breaker is closed.  Independently, a 1 ms loop timer,
    armed only while hedgeable requests are in flight, re-issues any
    [analyze] still unanswered after the hedge delay
    ([Fixed_ms], or [Adaptive]: twice the shard's observed p99) on the
    shard's follower with the {e remaining} deadline restamped; the
    first reply wins and the loser is dropped — byte-safe because
    verdicts are deterministic.  Hedging is guarded by a token bucket
    of [hedge_budget] tokens (refilling one budget per second) so a
    melting shard cannot double the fleet's load, and skipped for
    promoted shards, expired deadlines and shards without a follower.

    Fault sites (class [cluster], docs/RESILIENCE.md): [route.forward]
    is consulted once per forwarded request on the loop thread, in the
    order requests are read, so a single-driver chaos run replays
    deterministically; hedge re-issues never consult it. *)

type shard_spec = {
  primary : Server.Client.addr;
  follower : Server.Client.addr option;
      (** Promotion target; a shard without one stays down when its
          primary dies. *)
  journal : string option;
      (** The primary's store journal path — the shipping source.
          Required for replication (with [follower]); [None] disables
          shipping for this shard. *)
}

type hedge_policy =
  | No_hedge          (** Never re-issue; one upstream copy per request. *)
  | Fixed_ms of int   (** Hedge after a fixed delay. *)
  | Adaptive
      (** Hedge after twice the shard's observed p99 first-reply
          latency (64-sample ring; 10 ms before any sample). *)

type config = {
  listen : Server.Daemon.listen;
  shards : shard_spec list;
  pool_size : int;            (** Upstream connections per shard (each pool). *)
  max_transport : Server.Wire.version;    (** Newest dialect clients may negotiate. *)
  health_interval_ms : int;
  health_threshold : int;
  vnodes : int;               (** Ring points per shard ({!Ring.make}). *)
  hedge : hedge_policy;
  hedge_budget : int;
      (** Hedge token-bucket capacity (and per-second refill);
          [<= 0] disables hedging like [No_hedge]. *)
  latency_limit_ms : float;
      (** {!Health} breaker threshold on the probe-latency EWMA;
          [<= 0] disables the breaker. *)
}

val default_config : Server.Daemon.listen -> shard_spec list -> config
(** [pool_size = 2], [max_transport = ]{!Server.Wire.V2}, 1 s health
    interval, threshold 3, 64 vnodes, [Adaptive] hedging with budget
    64, breaker limit 500 ms. *)

type t

val create : config -> t
(** Bind the listening socket (same stale-socket policy as the
    daemon); upstream connections are opened lazily on first use.
    @raise Invalid_argument on an empty shard list,
    @raise Failure / [Unix.Unix_error] when the socket is unusable. *)

val run : t -> unit
(** The event loop, on the calling thread, plus the monitor thread;
    returns once a drain has completed: parked requests answered
    [overloaded], queued replies flushed (for at most 5 s), clients
    hung up, upstream pools closed, final journal tail shipped. *)

val initiate_drain : t -> unit
(** Start the drain; any thread. *)

val wake : t -> unit
(** Async-signal-safe drain trigger (one self-pipe write). *)

val port : t -> int option
(** The bound TCP port ([None] for Unix sockets). *)

val ring : t -> Ring.t

val promote_shard : t -> int -> bool
(** Promote shard [idx]'s follower in place, synchronously, from any
    thread: mark the shard down, catch the follower up from the
    primary's journal, then redirect.  Each step wakes the loop, which
    closes the shard's pooled connections (parked requests complete
    with retriable [overloaded]); any request the router reads after
    this returns goes to the follower.  Returns whether the shard is
    serving afterwards ([false] without a follower).  Idempotent.  The
    monitor thread uses the same path; the chaos harness calls it
    directly so the kill → promote transition lands at a deterministic
    point in its request stream.
    @raise Invalid_argument on an out-of-range index. *)

val stats_fields : t -> (string * Json.t) list
(** The payload of a [stats] reply: per-shard target/liveness/
    promotion/forwarded/shed/hedges/hedge_wins/breaker/ewma_ms/
    watermark plus accepted, promotions, total hedges and hedge wins,
    and the transport policy.  The counters belong to the loop thread:
    read from another thread while the router runs, they may lag it by
    a few requests. *)
