type addr = [ `Unix of string | `Tcp of string * int ]

type conn = {
  fd : Unix.file_descr;
  dec : Wire.decoder;
  mutable version : Wire.version;
  chunk : Bytes.t;
}

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send_string c s =
  let n = String.length s in
  let written = ref 0 in
  while !written < n do
    written := !written + Unix.write_substring c.fd s !written (n - !written)
  done

let rec pull c =
  match Wire.next c.dec with
  | Wire.Frame f -> f
  | Wire.Corrupt msg -> failwith ("Client.request: corrupt reply stream: " ^ msg)
  | Wire.Need_more -> (
    match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
    | 0 -> failwith "Client.request: connection closed by server"
    | n ->
      Wire.feed c.dec c.chunk 0 n;
      pull c)

(* Every reply surfaces as the JSON document it is equivalent to: a
   binary ['V'] frame reconstructs the exact [ok] analyze reply —
   {!Protocol.json_of_wire} renders deterministically, so the verify
   path compares byte-identically regardless of transport. *)
let reply_of_frame = function
  | Wire.Text line -> (
    match Json.parse line with
    | Ok reply -> reply
    | Error msg -> failwith ("Client.request: unparsable reply: " ^ msg))
  | Wire.Bin_verdict { id; verdict; store } ->
    Protocol.ok_reply ~id:(Json.Int id) ~op:"analyze"
      (Handlers.fields_of_analyze (verdict, store))
  | Wire.Bin_analyze _ -> failwith "Client.request: unexpected analyze frame from server"

let read_reply c = reply_of_frame (pull c)

let request c json =
  send_string c (Wire.encode c.version (Wire.Text (Json.to_string json)));
  read_reply c

let recv c = read_reply c

let dial (addr : addr) =
  let fd, sockaddr =
    match addr with
    | `Unix path -> (Unix.socket PF_UNIX SOCK_STREAM 0, Unix.ADDR_UNIX path)
    | `Tcp (host, port) ->
      ( Unix.socket PF_INET SOCK_STREAM 0,
        Unix.ADDR_INET ((Unix.gethostbyname host).h_addr_list.(0), port) )
  in
  match Unix.connect fd sockaddr with
  | () -> fd
  | exception e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

let connect ?(transport = Wire.V1) (addr : addr) =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let fd = dial addr in
  let c = { fd; dec = Wire.decoder Wire.V1; version = Wire.V1; chunk = Bytes.create 65536 } in
  (match transport with
  | Wire.V1 -> ()
  | Wire.V2 -> (
    (* Negotiate before anything else is in flight: the ack is the
       switch point for both directions. *)
    match request c (Protocol.hello ~transport:(Wire.version_name Wire.V2) ()) with
    | reply when Protocol.reply_ok reply ->
      c.version <- Wire.V2;
      Wire.set_version c.dec Wire.V2
    | _ ->
      close c;
      failwith "Client.connect: server refused the binary transport"
    | exception e ->
      close c;
      raise e));
  c

(* The transport-polymorphic analyze send: a compact ['A'] frame once
   the connection speaks v2, the JSON document otherwise. *)
let send_analyze c ~id ?deadline_ms ~mu tmat =
  match c.version with
  | Wire.V2 -> send_string c (Wire.encode Wire.V2 (Wire.Bin_analyze { id; deadline_ms; mu; tmat }))
  | Wire.V1 ->
    send_string c
      (Wire.encode Wire.V1
         (Wire.Text
            (Json.to_string (Protocol.analyze ~id:(Json.Int id) ?deadline_ms ~mu tmat))))

(* --------------------------- retrying session ----------------------- *)

type retry = {
  max_attempts : int;
  base_delay_ms : float;
  max_delay_ms : float;
  timeout_ms : float;
  retry_seed : int;
  retry_budget : int;
  retry_refill_per_s : float;
}

let default_retry =
  {
    max_attempts = 8;
    base_delay_ms = 1.;
    max_delay_ms = 100.;
    timeout_ms = 2000.;
    retry_seed = 0;
    retry_budget = 128;
    retry_refill_per_s = 64.;
  }

type session = {
  s_addr : addr;
  s_retry : retry;
  s_transport : Wire.version;
  mutable s_conn : conn option;
  mutable s_rng : int;
  mutable s_next_id : int;
  (* Retry token bucket: every re-issue (per-attempt backoff aside)
     spends a token, tokens refill at a steady rate, so a session can
     never storm a slow or recovering server with an unbounded retry
     amplification — the bucket caps the burst, the refill caps the
     sustained rate. *)
  mutable s_tokens : float;
  mutable s_refill_at : float;
}

let session ?(retry = default_retry) ?(transport = Wire.V1) addr =
  if retry.max_attempts < 1 then invalid_arg "Client.session: max_attempts must be >= 1";
  {
    s_addr = addr;
    s_retry = retry;
    s_transport = transport;
    s_conn = None;
    (* [lor 1] keeps a zero seed from pinning the LCG at zero. *)
    s_rng = (retry.retry_seed * 2654435761) lor 1;
    s_next_id = 0;
    s_tokens = float_of_int (max 0 retry.retry_budget);
    s_refill_at = Unix.gettimeofday ();
  }

let close_session s =
  Option.iter close s.s_conn;
  s.s_conn <- None

(* Deterministic jitter: a tiny LCG advanced per retry, seeded from
   [retry_seed], so a chaos run's whole retry schedule replays. *)
let jitter s =
  s.s_rng <- ((s.s_rng * 1103515245) + 12345) land 0x3FFFFFFF;
  float_of_int (s.s_rng mod 1000) /. 1000.

(* Exponential backoff with full jitter in [d/2, d]: concurrent
   retriers spread out, and the delay never collapses to zero. *)
let backoff s attempt =
  let r = s.s_retry in
  let d = Float.min r.max_delay_ms (r.base_delay_ms *. (2. ** float_of_int (attempt - 1))) in
  d *. (0.5 +. (0.5 *. jitter s)) /. 1000.

let session_conn s =
  match s.s_conn with
  | Some c -> c
  | None ->
    let fd_timeout c =
      (* A receive timeout bounds how long a swallowed reply can stall
         the session; the EAGAIN it raises is a retriable transport
         error like any other. *)
      try Unix.setsockopt_float c.fd SO_RCVTIMEO (s.s_retry.timeout_ms /. 1000.)
      with Unix.Unix_error _ | Invalid_argument _ -> ()
    in
    (* The timeout must cover the negotiation read too, so connect
       plain-v1 first and upgrade through the session's own request
       path. *)
    let c = connect s.s_addr in
    fd_timeout c;
    (match s.s_transport with
    | Wire.V1 -> ()
    | Wire.V2 -> (
      match request c (Protocol.hello ~transport:(Wire.version_name Wire.V2) ()) with
      | reply when Protocol.reply_ok reply ->
        c.version <- Wire.V2;
        Wire.set_version c.dec Wire.V2
      | _ ->
        close c;
        failwith "Client.session: server refused the binary transport"
      | exception e ->
        close c;
        raise e));
    s.s_conn <- Some c;
    c

let drop_session_conn s =
  Option.iter close s.s_conn;
  s.s_conn <- None

let retriable_code reply =
  match Protocol.error_code reply with
  | Some ("overloaded" | "draining") -> true
  | _ -> false

(* [retry_budget <= 0] means unlimited (the pre-budget behavior);
   otherwise a retry happens only if a token is available right now.
   Refill is continuous at [retry_refill_per_s], capped at the bucket
   size. *)
let take_retry_token s =
  let r = s.s_retry in
  if r.retry_budget <= 0 then true
  else begin
    let now = Unix.gettimeofday () in
    let elapsed = Float.max 0. (now -. s.s_refill_at) in
    s.s_refill_at <- now;
    s.s_tokens <-
      Float.min
        (float_of_int r.retry_budget)
        (s.s_tokens +. (elapsed *. r.retry_refill_per_s));
    if s.s_tokens >= 1. then begin
      s.s_tokens <- s.s_tokens -. 1.;
      true
    end
    else false
  end

let call s json =
  (* Stamp a session-unique id when the caller did not: the id is the
     dedupe key that makes re-issue after a lost reply idempotent. *)
  let json =
    match Json.member "id" json with
    | Some _ -> json
    | None -> (
      s.s_next_id <- s.s_next_id + 1;
      match json with
      | Json.Obj fields -> Json.Obj (("id", Json.Int s.s_next_id) :: fields)
      | other -> other)
  in
  let want_id = Json.member "id" json in
  let attempt_once () =
    let c = session_conn s in
    send_string c (Wire.encode c.version (Wire.Text (Json.to_string json)));
    (* Discard replies whose id is not ours: a late reply to an
       earlier, timed-out request on this same connection must not be
       mis-attributed to the re-issued one. *)
    let rec read_matching () =
      let reply = read_reply c in
      if Json.member "id" reply = want_id then reply else read_matching ()
    in
    read_matching ()
  in
  let rec go attempt =
    match attempt_once () with
    | reply ->
      if
        retriable_code reply
        && attempt < s.s_retry.max_attempts
        && take_retry_token s
      then begin
        Thread.delay (backoff s attempt);
        go (attempt + 1)
      end
      else Ok (reply, attempt)
    | exception e ->
      (* Any transport failure — reset, EOF, receive timeout — voids
         the connection; the next attempt reconnects from scratch. *)
      drop_session_conn s;
      if attempt < s.s_retry.max_attempts && take_retry_token s then begin
        Thread.delay (backoff s attempt);
        go (attempt + 1)
      end
      else Error (Printexc.to_string e)
  in
  go 1

(* ---------------------------- load generator ------------------------ *)

type load_config = {
  requests : int;
  concurrency : int;
  distinct : int;
  seed : int;
  size : int;
  verify : bool;
  deadline_ms : int option;
  transport : Wire.version;
  pipeline : int;
}

let default_load =
  {
    requests = 1000;
    concurrency = 8;
    distinct = 64;
    seed = 1;
    size = 4;
    verify = true;
    deadline_ms = None;
    transport = Wire.V1;
    pipeline = 1;
  }

type load_report = {
  sent : int;
  ok : int;
  shed : int;
  draining : int;
  deadline_exceeded : int;
  errors : int;
  bounded : int;
  disagreements : int;
  transport : string;
  pipeline : int;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_ms : float;
  wall_s : float;
  rps : float;
}

let h_latency = Obs.Metrics.histogram "client.request_ms"

let percentile sorted p =
  match Array.length sorted with
  | 0 -> 0.
  | n -> sorted.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))

let wire_exactness reply =
  match Json.member "verdict" reply with
  | Some v -> (
    match Json.member "exactness" v with Some (Json.Str s) -> Some s | _ -> None)
  | None -> None

let verdict_bytes reply =
  match Json.member "verdict" reply with
  | Some v -> Some (Json.to_string v)
  | None -> None

let load_any addrs cfg =
  if addrs = [] then invalid_arg "Client.load: at least one address";
  if cfg.requests < 1 then invalid_arg "Client.load: requests must be >= 1";
  if cfg.concurrency < 1 then invalid_arg "Client.load: concurrency must be >= 1";
  if cfg.distinct < 1 then invalid_arg "Client.load: distinct must be >= 1";
  if cfg.pipeline < 1 then invalid_arg "Client.load: pipeline must be >= 1";
  let addrs = Array.of_list addrs in
  let instances =
    Array.init cfg.distinct (fun i -> Check.Gen.ith ~seed:cfg.seed ~size:cfg.size i)
  in
  let expected =
    if not cfg.verify then [||]
    else
      Array.map
        (fun (inst : Check.Instance.t) ->
          Json.to_string
            (Protocol.json_of_wire
               (Protocol.wire_of_verdict
                  (Analysis.check ~mu:inst.Check.Instance.mu inst.Check.Instance.tmat))))
        instances
  in
  let latencies = Array.make cfg.requests nan in
  let next = Atomic.make 0 in
  let ok = Atomic.make 0
  and shed = Atomic.make 0
  and draining = Atomic.make 0
  and deadline_exceeded = Atomic.make 0
  and errors = Atomic.make 0
  and bounded = Atomic.make 0
  and disagreements = Atomic.make 0 in
  let classify reply i =
    if Protocol.reply_ok reply then begin
      Atomic.incr ok;
      if cfg.verify then
        if wire_exactness reply = Some "bounded" then Atomic.incr bounded
        else if verdict_bytes reply <> Some expected.(i mod cfg.distinct) then
          Atomic.incr disagreements
    end
    else
      match Protocol.error_code reply with
      | Some "overloaded" -> Atomic.incr shed
      | Some "draining" -> Atomic.incr draining
      (* An expired deadline is an answer, not a failure: the server
         honored the budget the caller asked for. *)
      | Some "deadline_exceeded" -> Atomic.incr deadline_exceeded
      | _ -> Atomic.incr errors
  in
  (* Each worker keeps up to [pipeline] requests in flight on its one
     connection and matches replies back by id — the server answers
     warm requests inline and cold ones from the pool, so replies can
     legitimately overtake each other. *)
  (* Workers round-robin over the given addresses, so a shard fleet
     gets driven — and byte-for-byte verified — evenly; with one
     address this is the classic single-server load. *)
  let worker w () =
    match connect ~transport:cfg.transport addrs.(w mod Array.length addrs) with
    | exception exn ->
      Printf.eprintf "client: connect failed: %s\n%!" (Printexc.to_string exn);
      (* Burn the whole remaining share as transport errors rather
         than hanging the run. *)
      let rec burn () =
        let i = Atomic.fetch_and_add next 1 in
        if i < cfg.requests then begin
          Atomic.incr errors;
          burn ()
        end
      in
      burn ()
    | c ->
      let outstanding : (int, float) Hashtbl.t = Hashtbl.create (2 * cfg.pipeline) in
      let exhausted = ref false in
      let fill () =
        while (not !exhausted) && Hashtbl.length outstanding < cfg.pipeline do
          let i = Atomic.fetch_and_add next 1 in
          if i >= cfg.requests then exhausted := true
          else begin
            let inst = instances.(i mod cfg.distinct) in
            Hashtbl.replace outstanding i (Unix.gettimeofday ());
            send_analyze c ~id:i ?deadline_ms:cfg.deadline_ms
              ~mu:inst.Check.Instance.mu inst.Check.Instance.tmat
          end
        done
      in
      (match
         let rec pump () =
           fill ();
           if Hashtbl.length outstanding > 0 then begin
             let reply = read_reply c in
             (match Protocol.reply_id reply with
             | Json.Int i when Hashtbl.mem outstanding i ->
               let t0 = Hashtbl.find outstanding i in
               Hashtbl.remove outstanding i;
               let ms = 1000. *. (Unix.gettimeofday () -. t0) in
               latencies.(i) <- ms;
               Obs.Metrics.observe h_latency ms;
               classify reply i
             | _ -> Atomic.incr errors);
             pump ()
           end
         in
         pump ()
       with
      | () -> ()
      | exception _ ->
        (* A transport failure voids every request in flight on this
           connection; requests not yet sent stay in the shared
           counter for the other workers. *)
        ignore (Atomic.fetch_and_add errors (Hashtbl.length outstanding)));
      close c
  in
  let t0 = Unix.gettimeofday () in
  let threads = List.init cfg.concurrency (fun w -> Thread.create (worker w) ()) in
  List.iter Thread.join threads;
  let wall_s = Unix.gettimeofday () -. t0 in
  let measured =
    Array.of_list
      (List.filter (fun x -> not (Float.is_nan x)) (Array.to_list latencies))
  in
  Array.sort compare measured;
  {
    sent = cfg.requests;
    ok = Atomic.get ok;
    shed = Atomic.get shed;
    draining = Atomic.get draining;
    deadline_exceeded = Atomic.get deadline_exceeded;
    errors = Atomic.get errors;
    bounded = Atomic.get bounded;
    disagreements = Atomic.get disagreements;
    transport = Wire.version_name cfg.transport;
    pipeline = cfg.pipeline;
    p50_ms = percentile measured 0.50;
    p95_ms = percentile measured 0.95;
    p99_ms = percentile measured 0.99;
    max_ms = (if Array.length measured = 0 then 0. else measured.(Array.length measured - 1));
    wall_s;
    rps = (if wall_s > 0. then float_of_int cfg.requests /. wall_s else 0.);
  }

let load addr cfg = load_any [ addr ] cfg

let json_of_load_report r =
  Json.Obj
    [
      ("sent", Json.Int r.sent);
      ("ok", Json.Int r.ok);
      ("shed", Json.Int r.shed);
      ("draining", Json.Int r.draining);
      ("deadline_exceeded", Json.Int r.deadline_exceeded);
      ("errors", Json.Int r.errors);
      ("bounded", Json.Int r.bounded);
      ("disagreements", Json.Int r.disagreements);
      ("transport", Json.Str r.transport);
      ("pipeline", Json.Int r.pipeline);
      ("p50_ms", Json.Float r.p50_ms);
      ("p95_ms", Json.Float r.p95_ms);
      ("p99_ms", Json.Float r.p99_ms);
      ("max_ms", Json.Float r.max_ms);
      ("wall_s", Json.Float r.wall_s);
      ("requests_per_s", Json.Float r.rps);
      ("shed_rate", Json.Float (float_of_int r.shed /. float_of_int r.sent));
    ]
