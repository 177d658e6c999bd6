(** Client for the daemon's versioned wire protocol ({!Wire}),
    doubling as the load generator behind the [client] CLI subcommand,
    the serve bench section and the CI smoke job.

    Every connection starts on the v1 JSON-lines dialect; passing
    [~transport:Wire.V2] sends the [hello] negotiation frame first and
    switches both directions to the binary framing once the server
    acks it.  Whatever the dialect, replies surface as the JSON
    document they are equivalent to — a binary ['V'] verdict frame
    reconstructs the exact [ok] analyze reply — so callers never see
    the transport. *)

type addr = [ `Unix of string | `Tcp of string * int ]

type conn

val connect : ?transport:Wire.version -> addr -> conn
(** Default transport {!Wire.V1}.
    @raise Unix.Unix_error when the server is not there.
    @raise Failure when the server refuses the requested transport. *)

val request : conn -> Json.t -> Json.t
(** Send one request document, block for the reply.
    @raise Failure on EOF, a corrupt frame or an unparsable reply. *)

val recv : conn -> Json.t
(** Block for the next reply, whatever its id.  A binary ['V'] frame
    surfaces as the equivalent [ok] analyze reply document.
    @raise Failure as {!request}. *)

val send_analyze :
  conn -> id:int -> ?deadline_ms:int -> mu:int array -> Intmat.t -> unit
(** The transport-polymorphic analyze send: a compact binary ['A']
    frame once the connection speaks v2, the JSON document
    otherwise. *)

val close : conn -> unit

val dial : addr -> Unix.file_descr
(** A connected stream socket to [addr], with no negotiation — for
    callers that run their own I/O loop (the cluster router's upstream
    pool).  @raise Unix.Unix_error when the server is not there. *)

(** {1 Retrying session}

    A [session] wraps the raw connection with the recovery loop a
    fault-injected (or merely unlucky) daemon demands: reconnect on
    any transport failure (renegotiating the transport), re-issue the
    request with the {e same} id, discard replies whose id does not
    echo it (so a late reply to a timed-out earlier attempt is never
    mis-attributed), and back off exponentially with deterministic
    seeded jitter between attempts.  [overloaded] and [draining] error
    replies are also retried; other error replies are returned as-is —
    they are answers, not transport failures.  Analyze requests are
    idempotent (verdicts are deterministic), so re-issue is always
    safe.  See docs/RESILIENCE.md. *)

type retry = {
  max_attempts : int;     (** Total tries, first included (>= 1). *)
  base_delay_ms : float;  (** Backoff before the 2nd try. *)
  max_delay_ms : float;   (** Backoff ceiling. *)
  timeout_ms : float;     (** Per-read receive timeout (SO_RCVTIMEO). *)
  retry_seed : int;       (** Seeds the jitter LCG. *)
  retry_budget : int;
      (** Token-bucket capacity bounding {e re-issues} across the whole
          session — the retry-storm guard: once the bucket is empty a
          failed call returns its error instead of hammering a slow
          server.  [<= 0] disables the bucket (unlimited retries, the
          pre-bucket behaviour). *)
  retry_refill_per_s : float;
      (** Continuous bucket refill rate (tokens per second, capped at
          [retry_budget]). *)
}

val default_retry : retry
(** 8 attempts, 1 ms base, 100 ms ceiling, 2 s read timeout, seed 0,
    retry budget 128 refilling at 64 tokens/s — generous enough that a
    well-behaved session never notices the bucket. *)

type session

val session : ?retry:retry -> ?transport:Wire.version -> addr -> session
(** Lazy: the first {!call} connects (and negotiates [transport],
    default {!Wire.V1}); so does every reconnect after a transport
    failure. *)

val call : session -> Json.t -> (Json.t * int, string) result
(** [call s req] returns [(reply, attempts)] or, after exhausting
    [max_attempts], the last transport error.  A request without an
    ["id"] field gets a session-unique one stamped in. *)

val close_session : session -> unit
(** Drop the current connection (the session may be reused; the next
    {!call} reconnects). *)

(** {1 Load generation}

    [load] replays a deterministic {!Check.Gen.ith} instance stream as
    [analyze] requests from [concurrency] worker threads (one
    connection each), cycling over [distinct] instances — so a second
    pass hits the server's warm store.  Each worker keeps up to
    [pipeline] requests in flight on its connection and matches
    replies back by id (the server may answer warm requests out of
    order relative to cold ones).  On {!Wire.V2} the requests go out
    as compact binary ['A'] frames.  With [verify] every exact reply's
    [verdict] object must render byte-identically to a direct local
    {!Analysis.check}; disagreements are counted (and must be zero —
    the CI smoke job asserts it). *)

type load_config = {
  requests : int;
  concurrency : int;
  distinct : int;      (** Distinct instances in the cycled pool. *)
  seed : int;
  size : int;          (** {!Check.Gen} size parameter. *)
  verify : bool;
  deadline_ms : int option;
  transport : Wire.version;
  pipeline : int;      (** Max requests in flight per connection (>= 1). *)
}

val default_load : load_config
(** 1000 requests, 8 workers, 64 distinct instances, seed 1, size 4,
    verify on, no deadline, v1 transport, pipeline 1. *)

type load_report = {
  sent : int;
  ok : int;
  shed : int;           (** [overloaded] replies. *)
  draining : int;
  deadline_exceeded : int;
      (** [deadline_exceeded] replies — answers (the budget really was
          spent), not failures. *)
  errors : int;         (** Transport failures and unexpected replies. *)
  bounded : int;        (** Exact-comparison skips (bounded verdicts). *)
  disagreements : int;
  transport : string;   (** Negotiated transport ({!Wire.version_name}). *)
  pipeline : int;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_ms : float;
  wall_s : float;
  rps : float;
}

val load : addr -> load_config -> load_report
(** Latencies additionally feed the [client.request_ms] histogram of
    {!Obs.Metrics}. *)

val load_any : addr list -> load_config -> load_report
(** {!load} with workers round-robined over several addresses — the
    [client --shards] mode: driving a shard fleet (or a router plus
    direct shard sockets) under the same byte-for-byte verification,
    since every reply is checked against a local {!Analysis.check}
    regardless of which server produced it.
    @raise Invalid_argument on an empty address list. *)

val json_of_load_report : load_report -> Json.t
