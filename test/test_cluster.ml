(* Tests for the cluster tier: consistent-hash placement, the
   hash-indexed snapshot format (round trip, truncated footer,
   bit-flipped index, journal-tail precedence, O(1) open), journal
   shipping over the [ship] op, and a live router — differential
   forwarding over two shards in every client x shard dialect, binary
   frames passed through with their ids (and a hedge's deadline)
   rewritten, plus an async failover promotion. *)

module Store = Server.Store
module Protocol = Server.Protocol
module Daemon = Server.Daemon
module Client = Server.Client
module Snapshot = Server.Snapshot
module Wire = Server.Wire
module Ring = Cluster.Ring
module Router = Cluster.Router
module Shipper = Cluster.Shipper
module Health = Cluster.Health

let fresh_path =
  let counter = ref 0 in
  fun suffix ->
    incr counter;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "sf-cluster-%d-%d%s" (Unix.getpid ()) !counter suffix)

let rm path = try Sys.remove path with Sys_error _ -> ()

let mu1 = [| 4; 4; 4 |]
let t1 = Intmat.of_ints [ [ 1; 1; -1 ]; [ 1; 4; 1 ] ]
let mu2 = [| 6; 6; 6; 6 |]
let t2 = Intmat.of_ints [ [ 1; 7; 1; 1 ]; [ 1; 7; 1; 0 ] ]

(* -------------------------------- ring ------------------------------ *)

let test_ring_placement () =
  (* Placement is a pure function of (shards, vnodes): two builds
     agree everywhere, and every shard owns a non-trivial share. *)
  let a = Ring.make ~vnodes:64 3 and b = Ring.make ~vnodes:64 3 in
  for i = 0 to 999 do
    let h = Ring.fnv1a (Printf.sprintf "probe:%d" i) in
    Alcotest.(check int)
      (Printf.sprintf "deterministic probe %d" i)
      (Ring.shard_of a h) (Ring.shard_of b h)
  done;
  let hist = Ring.spread a ~samples:10_000 in
  Alcotest.(check int) "three buckets" 3 (Array.length hist);
  Alcotest.(check int) "all samples placed" 10_000
    (Array.fold_left ( + ) 0 hist);
  Array.iteri
    (fun i n ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d owns >= 10%%" i)
        true
        (n >= 1_000))
    hist;
  (* One shard degenerates to the identity placement. *)
  let solo = Ring.make 1 in
  Alcotest.(check int) "solo ring" 0 (Ring.shard_of solo 0xDEADBEEF)

(* ---------------------------- snapshots ----------------------------- *)

let entry_a = (* deliberately synthetic, distinguishable entries *)
  { Store.conflict_free = true; full_rank = true;
    decided_by = "snapshot-side"; witness = None }

let entry_b =
  { Store.conflict_free = false; full_rank = true;
    decided_by = "journal-side"; witness = Some [ 1; 2; 3 ] }

let test_snapshot_roundtrip () =
  let journal = fresh_path ".store" in
  let snap = fresh_path ".snap" in
  let s = Store.open_ journal in
  let e1 = Store.entry_of_verdict (Analysis.check ~mu:mu1 t1) in
  let e2 = Store.entry_of_verdict (Analysis.check ~mu:mu2 t2) in
  Store.add s ~mu:mu1 t1 e1;
  Store.add s ~mu:mu2 t2 e2;
  let n = Store.compact_to_snapshot s ~snapshot:snap in
  Alcotest.(check int) "compacted records" 2 n;
  Store.close s;
  (* Reopen: the warm start comes from the snapshot, not replay. *)
  let s = Store.open_ ~snapshot:snap journal in
  let st = Store.stats s in
  Alcotest.(check string) "provenance" "snapshot+tail" st.Store.provenance;
  Alcotest.(check int) "no journal replay" 0 st.Store.loaded;
  Alcotest.(check int) "snapshot entries" 2 st.Store.snap_entries;
  Alcotest.(check bool) "key 1 served" true (Store.find s ~mu:mu1 t1 = Some e1);
  Alcotest.(check bool) "key 2 served" true (Store.find s ~mu:mu2 t2 = Some e2);
  let st = Store.stats s in
  Alcotest.(check bool) "snapshot hits counted" true (st.Store.snap_hits >= 2);
  Alcotest.(check bool) "open is fast and measured" true (st.Store.open_ms >= 0.0);
  Store.close s;
  rm journal;
  rm snap

let test_snapshot_truncated_footer () =
  let journal = fresh_path ".store" in
  let snap = fresh_path ".snap" in
  let s = Store.open_ journal in
  Store.add s ~mu:mu1 t1 entry_a;
  Store.add s ~mu:mu2 t2 entry_b;
  ignore (Store.write_snapshot s snap);
  Store.close s;
  (* Chop the footer: the snapshot must fail open cleanly and the
     store must fall back to a plain journal replay. *)
  let size = (Unix.stat snap).Unix.st_size in
  let fd = Unix.openfile snap [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd (size - 5);
  Unix.close fd;
  (match Snapshot.open_reader snap with
  | Ok _ -> Alcotest.fail "truncated snapshot opened"
  | Error _ -> ());
  let s = Store.open_ ~snapshot:snap journal in
  let st = Store.stats s in
  Alcotest.(check string) "fell back to replay" "replay" st.Store.provenance;
  Alcotest.(check int) "no snapshot entries" 0 st.Store.snap_entries;
  Alcotest.(check int) "journal replayed instead" 2 st.Store.loaded;
  Alcotest.(check bool) "key 1 served" true
    (Store.find s ~mu:mu1 t1 = Some entry_a);
  Alcotest.(check bool) "key 2 served" true
    (Store.find s ~mu:mu2 t2 = Some entry_b);
  Store.close s;
  rm journal;
  rm snap

let read_u64_be ic pos =
  seek_in ic pos;
  let v = ref 0 in
  for _ = 1 to 8 do
    v := (!v lsl 8) lor input_byte ic
  done;
  !v

let test_snapshot_bit_flip () =
  let journal = fresh_path ".store" in
  let snap = fresh_path ".snap" in
  let s = Store.open_ journal in
  Store.add s ~mu:mu1 t1 entry_a;
  Store.add s ~mu:mu2 t2 entry_b;
  ignore (Store.compact_to_snapshot s ~snapshot:snap);
  Store.close s;
  (* Damage the first index entry's offset field.  The index is sorted
     by (kind, hash), so the victim is the key with the smaller
     content hash; the other key must keep serving. *)
  let h1 = Store.key_hash ~mu:mu1 t1 and h2 = Store.key_hash ~mu:mu2 t2 in
  let ic = open_in_bin snap in
  let size = in_channel_length ic in
  let index_off = read_u64_be ic (size - 16) in
  close_in ic;
  let fd = Unix.openfile snap [ Unix.O_RDWR ] 0o644 in
  ignore (Unix.lseek fd (index_off + 5) Unix.SEEK_SET);
  let b = Bytes.create 1 in
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xFF));
  ignore (Unix.lseek fd (index_off + 5) Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd;
  let s = Store.open_ ~snapshot:snap journal in
  let victim_mu, victim_t, ok_mu, ok_t, ok_entry =
    if h1 <= h2 then (mu1, t1, mu2, t2, entry_b)
    else (mu2, t2, mu1, t1, entry_a)
  in
  Alcotest.(check bool) "damaged entry degrades to a miss" true
    (Store.find s ~mu:victim_mu victim_t = None);
  Alcotest.(check bool) "undamaged entry still serves" true
    (Store.find s ~mu:ok_mu ok_t = Some ok_entry);
  let st = Store.stats s in
  Alcotest.(check bool) "corruption counted, not fatal" true
    (st.Store.snap_corrupt >= 1);
  Store.close s;
  rm journal;
  rm snap

let test_snapshot_tail_precedence () =
  (* A journal-tail record for a key present in the snapshot must
     shadow the snapshot (last-wins). *)
  let j1 = fresh_path ".store" in
  let j2 = fresh_path ".store" in
  let snap = fresh_path ".snap" in
  let s = Store.open_ j1 in
  Store.add s ~mu:mu1 t1 entry_a;
  ignore (Store.write_snapshot s snap);
  Store.close s;
  let s = Store.open_ j2 in
  Store.add s ~mu:mu1 t1 entry_b;
  Store.close s;
  let s = Store.open_ ~snapshot:snap j2 in
  let st = Store.stats s in
  Alcotest.(check string) "provenance" "snapshot+tail" st.Store.provenance;
  Alcotest.(check bool) "journal tail wins" true
    (Store.find s ~mu:mu1 t1 = Some entry_b);
  Store.close s;
  rm j1;
  rm j2;
  rm snap

let test_snapshot_open_is_o1 () =
  let synthetic n =
    List.init n (fun i ->
        ('v', i * 7, Printf.sprintf "k%d" i, Printf.sprintf "line %d" i))
  in
  let small = fresh_path ".snap" and large = fresh_path ".snap" in
  ignore (Snapshot.write small (synthetic 100));
  ignore (Snapshot.write large (synthetic 5_000));
  let open_reads path count =
    match Snapshot.open_reader path with
    | Error e -> Alcotest.fail e
    | Ok r ->
      Alcotest.(check int) "entries" count (Snapshot.entries r);
      let n = Snapshot.reads r in
      Snapshot.close r;
      n
  in
  let rs = open_reads small 100 and rl = open_reads large 5_000 in
  Alcotest.(check int) "open cost is 2 reads (small)" 2 rs;
  Alcotest.(check int) "open cost is 2 reads (50x larger)" 2 rl;
  (* The first query adds one index read plus one read per located
     line — still bounded, never a function of snapshot size. *)
  (match Snapshot.open_reader large with
  | Error e -> Alcotest.fail e
  | Ok r ->
    let lines = Snapshot.find_all r ~kind:'v' ~hash:7 in
    Alcotest.(check (list string)) "located line" [ "line 1" ] lines;
    Alcotest.(check bool) "query cost bounded" true (Snapshot.reads r <= 4);
    Snapshot.close r);
  rm small;
  rm large

(* ------------------------------ shipping ---------------------------- *)

let boot_daemon ?(jobs = 1) store_path =
  let sock = fresh_path ".sock" in
  let cfg =
    {
      (Daemon.default_config (Daemon.Unix_sock sock)) with
      jobs = Some jobs;
      store_path = Some store_path;
      fsync_every = 4;
    }
  in
  let d = Daemon.create cfg in
  let th = Thread.create Daemon.run d in
  (d, th, sock)

let stop_daemon (d, th, _sock) =
  Daemon.initiate_drain d;
  Thread.join th

let journal_record_lines path =
  let ic = open_in_bin path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = go [] in
  close_in ic;
  match lines with [] -> [] | _header :: records -> records

let test_ship_op () =
  (* Build one valid journal record, then drive the follower's [ship]
     op directly: ack with watermark echo, idempotent re-ship, and a
     malformed record rejected without damage. *)
  let src = fresh_path ".store" in
  let s = Store.open_ src in
  let e1 = Store.entry_of_verdict (Analysis.check ~mu:mu1 t1) in
  Store.add s ~mu:mu1 t1 e1;
  Store.close s;
  let line =
    match journal_record_lines src with
    | [ l ] -> l
    | ls -> Alcotest.fail (Printf.sprintf "expected 1 record, got %d" (List.length ls))
  in
  let follower_journal = fresh_path ".store" in
  let f = boot_daemon follower_journal in
  let _, _, sock = f in
  let conn = Client.connect (`Unix sock) in
  let reply =
    Client.request conn (Protocol.ship ~id:(Json.Int 1) ~seq:42 ~record:line ())
  in
  Alcotest.(check bool) "ship acked" true (Protocol.reply_ok reply);
  (match Json.member "watermark" reply with
  | Some (Json.Int 42) -> ()
  | _ -> Alcotest.fail "ship ack without watermark echo");
  let again =
    Client.request conn (Protocol.ship ~id:(Json.Int 2) ~seq:42 ~record:line ())
  in
  Alcotest.(check bool) "re-ship is idempotent" true (Protocol.reply_ok again);
  let bad =
    Client.request conn
      (Protocol.ship ~id:(Json.Int 3) ~seq:43 ~record:"not a journal record" ())
  in
  Alcotest.(check bool) "malformed record rejected" false (Protocol.reply_ok bad);
  Alcotest.(check (option string)) "bad_request" (Some "bad_request")
    (Protocol.error_code bad);
  Client.close conn;
  stop_daemon f;
  (* The shipped record landed in the follower's own journal. *)
  let fs = Store.open_ follower_journal in
  Alcotest.(check bool) "record replicated" true
    (Store.find fs ~mu:mu1 t1 = Some e1);
  Store.close fs;
  rm src;
  rm follower_journal

let test_shipper_pump () =
  let src = fresh_path ".store" in
  let follower_journal = fresh_path ".store" in
  let s = Store.open_ src in
  let e1 = Store.entry_of_verdict (Analysis.check ~mu:mu1 t1) in
  let e2 = Store.entry_of_verdict (Analysis.check ~mu:mu2 t2) in
  Store.add s ~mu:mu1 t1 e1;
  Store.add s ~mu:mu2 t2 e2;
  Store.flush s;
  let f = boot_daemon follower_journal in
  let _, _, sock = f in
  let sh = Shipper.create ~journal:src ~follower:(`Unix sock) () in
  Alcotest.(check int) "first pump ships everything" 2 (Shipper.pump sh);
  Alcotest.(check int) "second pump ships nothing" 0 (Shipper.pump sh);
  Alcotest.(check int) "watermark at end of journal" (Unix.stat src).Unix.st_size
    (Shipper.watermark sh);
  (* New appends ship incrementally. *)
  Store.add s ~mu:[| 5; 5; 5 |] t1
    (Store.entry_of_verdict (Analysis.check ~mu:[| 5; 5; 5 |] t1));
  Store.flush s;
  Alcotest.(check int) "incremental pump" 1 (Shipper.pump sh);
  Store.close s;
  Shipper.close sh;
  stop_daemon f;
  let fs = Store.open_ follower_journal in
  Alcotest.(check bool) "key 1 replicated" true (Store.find fs ~mu:mu1 t1 = Some e1);
  Alcotest.(check bool) "key 2 replicated" true (Store.find fs ~mu:mu2 t2 = Some e2);
  Alcotest.(check bool) "late key replicated" true
    (Store.find fs ~mu:[| 5; 5; 5 |] t1 <> None);
  Store.close fs;
  rm src;
  rm follower_journal

(* ------------------------------- router ----------------------------- *)

let boot_router ?(health_interval_ms = 60_000) ?(health_threshold = 3)
    ?(hedge = Router.No_hedge) specs =
  let sock = fresh_path ".sock" in
  let cfg =
    {
      (Router.default_config (Daemon.Unix_sock sock) specs) with
      pool_size = 1;
      health_interval_ms;
      health_threshold;
      hedge;
    }
  in
  let r = Router.create cfg in
  let th = Thread.create Router.run r in
  (r, th, sock)

let stop_router (r, th, _sock) =
  Router.initiate_drain r;
  Thread.join th

let direct_verdict (inst : Check.Instance.t) =
  Json.to_string
    (Protocol.json_of_wire
       (Protocol.wire_of_verdict
          (Analysis.check ~mu:inst.Check.Instance.mu inst.Check.Instance.tmat)))

(* Frame-level peers.  [Client] folds every reply into its JSON
   document; these checks need to see which frame came back. *)

let write_string fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b and w = ref 0 in
  while !w < n do
    w := !w + Unix.write fd b !w (n - !w)
  done

(* The next frame on [fd], [None] at end of stream. *)
let read_frame_opt fd dec =
  let buf = Bytes.create 4096 in
  let rec go () =
    match Wire.next dec with
    | Wire.Frame f -> Some f
    | Wire.Corrupt msg -> Alcotest.failf "corrupt frame: %s" msg
    | Wire.Need_more -> (
      match Unix.read fd buf 0 (Bytes.length buf) with
      | 0 -> None
      | n ->
        Wire.feed dec buf 0 n;
        go ())
  in
  go ()

let read_frame fd dec =
  match read_frame_opt fd dec with
  | Some f -> f
  | None -> Alcotest.fail "connection closed before a reply"

let parse_doc line =
  match Json.parse line with Ok j -> j | Error e -> Alcotest.failf "unparsable reply: %s" e

(* A raw connection that has negotiated the binary transport. *)
let v2_connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  let dec = Wire.decoder Wire.V1 in
  write_string fd
    (Wire.encode Wire.V1
       (Wire.Text (Json.to_string (Protocol.hello ~id:(Json.Int 0) ~transport:"binary" ()))));
  (match read_frame fd dec with
  | Wire.Text line when Protocol.reply_ok (parse_doc line) -> ()
  | _ -> Alcotest.fail "hello refused");
  Wire.set_version dec Wire.V2;
  (fd, dec)

let verdict_of_doc doc =
  match Json.member "verdict" doc with
  | Some v -> Json.to_string v
  | None -> Alcotest.fail "reply without verdict"

let test_router_differential () =
  let j0 = fresh_path ".store" and j1 = fresh_path ".store" in
  let s0 = boot_daemon j0 and s1 = boot_daemon j1 in
  let _, _, sock0 = s0 and _, _, sock1 = s1 in
  let specs =
    [
      { Router.primary = `Unix sock0; follower = None; journal = Some j0 };
      { Router.primary = `Unix sock1; follower = None; journal = Some j1 };
    ]
  in
  let insts = Array.init 8 (fun i -> Check.Gen.ith ~seed:3 ~size:4 i) in
  (* The reference: each verdict asked of a shard directly. *)
  let direct =
    let c = Client.connect ~transport:Wire.V2 (`Unix sock0) in
    let vs =
      Array.map
        (fun (inst : Check.Instance.t) ->
          Client.send_analyze c ~id:1 ~mu:inst.Check.Instance.mu inst.Check.Instance.tmat;
          verdict_of_doc (Client.recv c))
        insts
    in
    Client.close c;
    vs
  in
  Array.iteri
    (fun i inst -> Alcotest.(check string) "shard agrees with a local check" (direct_verdict inst) direct.(i))
    insts;
  let r = boot_router specs in
  let _, _, rsock = r in
  (* A verifying load through the router in each client dialect:
     every verdict byte-equal to a local Analysis.check, nothing shed,
     nothing lost. *)
  List.iter
    (fun transport ->
      let report =
        Client.load (`Unix rsock)
          {
            Client.default_load with
            requests = 80;
            concurrency = 4;
            distinct = 16;
            seed = 3;
            verify = true;
            transport;
          }
      in
      let leg = "client " ^ Wire.version_name transport in
      Alcotest.(check int) (leg ^ ": all ok") 80 report.Client.ok;
      Alcotest.(check int) (leg ^ ": no errors") 0 report.Client.errors;
      Alcotest.(check int) (leg ^ ": no shed") 0 report.Client.shed;
      Alcotest.(check int) (leg ^ ": no disagreements") 0 report.Client.disagreements)
    [ Wire.V1; Wire.V2 ];
  (* Frame by frame over v2.  The reply follows the request's dialect:
     an 'A' frame comes back as a 'V' frame carrying the client's id, a
     JSON analyze as a JSON document. *)
  let fd, dec = v2_connect rsock in
  Array.iteri
    (fun i (inst : Check.Instance.t) ->
      let mu = inst.Check.Instance.mu and tmat = inst.Check.Instance.tmat in
      let id = 1000 + i in
      write_string fd
        (Wire.encode Wire.V2 (Wire.Bin_analyze { id; deadline_ms = None; mu; tmat }));
      (match read_frame fd dec with
      | Wire.Bin_verdict { id = got; verdict; _ } ->
        Alcotest.(check int) "'V' reply carries the client's id" id got;
        Alcotest.(check string) "'V' verdict equals the direct one" direct.(i)
          (Json.to_string (Protocol.json_of_wire verdict))
      | _ -> Alcotest.fail "wrong reply frame to an 'A' request");
      let jid = 2000 + i in
      write_string fd
        (Wire.encode Wire.V2
           (Wire.Text (Json.to_string (Protocol.analyze ~id:(Json.Int jid) ~mu tmat))));
      match read_frame fd dec with
      | Wire.Text line ->
        let doc = parse_doc line in
        Alcotest.(check bool) "JSON reply echoes the id" true
          (Protocol.reply_id doc = Json.Int jid);
        Alcotest.(check string) "JSON verdict equals the direct one" direct.(i)
          (verdict_of_doc doc)
      | _ -> Alcotest.fail "a JSON analyze over v2 got a binary reply")
    insts;
  Unix.close fd;
  (* Router-inline ops: stats identifies the role; ship is refused
     (replication is shard-direct, never through the router). *)
  let conn = Client.connect (`Unix rsock) in
  let stats = Client.request conn (Protocol.stats_request ~id:(Json.Int 9) ()) in
  (match Json.member "role" stats with
  | Some (Json.Str "router") -> ()
  | _ -> Alcotest.fail "stats reply without role=router");
  let ship =
    Client.request conn (Protocol.ship ~id:(Json.Int 10) ~seq:1 ~record:"x" ())
  in
  Alcotest.(check (option string)) "ship refused" (Some "bad_request")
    (Protocol.error_code ship);
  Client.close conn;
  stop_router r;
  stop_daemon s0;
  stop_daemon s1;
  rm j0;
  rm j1

let test_router_head_of_line () =
  (* Client A pipelines analyzes through a one-shard router and never
     reads a reply, so its socket buffer fills and its replies back up
     in the router.  Client B shares the router's pooled shard
     connection; its one analyze must still be answered at once. *)
  let j = fresh_path ".store" in
  let shard = boot_daemon j in
  let _, _, sock = shard in
  let r = boot_router [ { Router.primary = `Unix sock; follower = None; journal = None } ] in
  let _, _, rsock = r in
  let inst = Check.Gen.ith ~seed:5 ~size:4 0 in
  let analyze id =
    Json.to_string
      (Protocol.analyze ~id:(Json.Int id) ~mu:inst.Check.Instance.mu inst.Check.Instance.tmat)
    ^ "\n"
  in
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX rsock);
    fd
  in
  let a = connect () in
  (* About 1 MB of replies: far more than a socket buffer holds. *)
  let burst = Buffer.create (5000 * 100) in
  for i = 1 to 5000 do
    Buffer.add_string burst (analyze i)
  done;
  let writer = Thread.create (fun () -> write_string a (Buffer.contents burst)) () in
  Thread.join writer;
  Thread.delay 0.2;
  let b = connect () in
  Unix.setsockopt_float b Unix.SO_RCVTIMEO 2.0;
  write_string b (analyze 0);
  let reply =
    match read_frame_opt b (Wire.decoder Wire.V1) with
    | Some (Wire.Text line) -> parse_doc line
    | Some _ | None -> Alcotest.fail "client B: connection closed without a reply"
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      Alcotest.fail "client B: no reply within 2 s behind a client that never reads"
  in
  Alcotest.(check bool) "client B answered" true (Protocol.reply_ok reply);
  Alcotest.(check bool) "client B's own id" true (Protocol.reply_id reply = Json.Int 0);
  Alcotest.(check string) "client B's verdict" (direct_verdict inst) (verdict_of_doc reply);
  Unix.close a;
  Unix.close b;
  stop_router r;
  stop_daemon shard;
  rm j

(* A scripted v2 shard: it acks a binary hello, records the id and
   deadline of every 'A' frame it receives, and answers each with the
   true verdict — or, when [stall], never. *)
type fake_shard = {
  fs_sock : string;
  fs_stop : bool Atomic.t;
  fs_seen : (int * int option) list ref;
  fs_lock : Mutex.t;
  fs_thread : Thread.t;
}

let fake_shard ~stall =
  let sock = fresh_path ".sock" in
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX sock);
  Unix.listen lfd 8;
  let stop = Atomic.make false and seen = ref [] and lock = Mutex.create () in
  let serve fd =
    let dec = Wire.decoder Wire.V1 in
    let rec loop () =
      match read_frame_opt fd dec with
      | None -> ()
      | Some (Wire.Text line) ->
        (match Protocol.request_of_line line with
        | Ok { Protocol.id; req = Protocol.Hello _ } ->
          write_string fd
            (Wire.encode Wire.V1
               (Wire.Text
                  (Json.to_string
                     (Protocol.ok_reply ~id ~op:"hello" [ ("transport", Json.Str "binary") ]))));
          Wire.set_version dec Wire.V2
        | _ -> ());
        loop ()
      | Some (Wire.Bin_analyze { id; deadline_ms; mu; tmat }) ->
        Mutex.lock lock;
        seen := (id, deadline_ms) :: !seen;
        Mutex.unlock lock;
        if not stall then
          write_string fd
            (Wire.encode Wire.V2
               (Wire.Bin_verdict
                  {
                    id;
                    verdict = Protocol.wire_of_verdict (Analysis.check ~mu tmat);
                    store = "miss";
                  }));
        loop ()
      | Some (Wire.Bin_verdict _) -> loop ()
    in
    (try loop () with Unix.Unix_error _ -> ());
    Unix.close fd
  in
  let rec accept_loop conns =
    if Atomic.get stop then conns
    else
      match Unix.select [ lfd ] [] [] 0.05 with
      | [], _, _ -> accept_loop conns
      | _ ->
        let fd, _ = Unix.accept lfd in
        accept_loop (Thread.create serve fd :: conns)
  in
  let th =
    Thread.create
      (fun () ->
        let conns = accept_loop [] in
        Unix.close lfd;
        List.iter Thread.join conns)
      ()
  in
  { fs_sock = sock; fs_stop = stop; fs_seen = seen; fs_lock = lock; fs_thread = th }

(* Call once the router is gone, so every connection has hung up. *)
let stop_fake f =
  Atomic.set f.fs_stop true;
  Thread.join f.fs_thread;
  rm f.fs_sock;
  Mutex.lock f.fs_lock;
  let seen = List.rev !(f.fs_seen) in
  Mutex.unlock f.fs_lock;
  seen

let test_router_hedge_raw () =
  (* A stalled primary and a fixed 20 ms hedge delay: the client's 'A'
     frame reaches the primary with its own deadline and a router id,
     then the follower, whose copy must carry the *remaining* deadline
     patched into the same bytes; the follower's 'V' verdict comes back
     with the client's id. *)
  let primary = fake_shard ~stall:true and follower = fake_shard ~stall:false in
  let specs =
    [
      {
        Router.primary = `Unix primary.fs_sock;
        follower = Some (`Unix follower.fs_sock);
        journal = None;
      };
    ]
  in
  let hedge_ms = 20 and deadline = 5000 in
  let r = boot_router ~hedge:(Router.Fixed_ms hedge_ms) specs in
  let _, _, rsock = r in
  let inst = Check.Gen.ith ~seed:19 ~size:4 0 in
  let fd, dec = v2_connect rsock in
  write_string fd
    (Wire.encode Wire.V2
       (Wire.Bin_analyze
          {
            id = 77;
            deadline_ms = Some deadline;
            mu = inst.Check.Instance.mu;
            tmat = inst.Check.Instance.tmat;
          }));
  (match read_frame fd dec with
  | Wire.Bin_verdict { id; verdict; _ } ->
    Alcotest.(check int) "hedged 'V' reply carries the client's id" 77 id;
    Alcotest.(check string) "hedged verdict byte-exact" (direct_verdict inst)
      (Json.to_string (Protocol.json_of_wire verdict))
  | _ -> Alcotest.fail "hedged reply is not a 'V' frame");
  Unix.close fd;
  stop_router r;
  match (stop_fake primary, stop_fake follower) with
  | [ (p_id, p_dl) ], [ (f_id, Some f_dl) ] ->
    Alcotest.(check (option int)) "primary copy keeps the client's deadline" (Some deadline)
      p_dl;
    Alcotest.(check bool) "router ids, one per copy" true
      (p_id <> 77 && f_id <> 77 && p_id <> f_id);
    Alcotest.(check bool)
      (Printf.sprintf "hedge carries the remaining deadline (%d ms)" f_dl)
      true
      (f_dl > 0 && f_dl <= deadline - hedge_ms)
  | p, f ->
    Alcotest.failf "expected one copy per shard with a deadline, got %d and %d"
      (List.length p) (List.length f)

let test_router_failover () =
  (* One shard with a follower; kill the primary and let the health
     monitor promote.  Served bytes must stay correct across the
     transition and no acked write may be lost. *)
  let pj = fresh_path ".store" and fj = fresh_path ".store" in
  let primary = boot_daemon pj in
  let follower = boot_daemon fj in
  let _, _, psock = primary and _, _, fsock = follower in
  let specs =
    [
      {
        Router.primary = `Unix psock;
        follower = Some (`Unix fsock);
        journal = Some pj;
      };
    ]
  in
  let r = boot_router ~health_interval_ms:50 ~health_threshold:2 specs in
  let router, _, rsock = r in
  let inst = Check.Gen.ith ~seed:11 ~size:4 0 in
  let expected = direct_verdict inst in
  let analyze id =
    Protocol.analyze ~id:(Json.Int id)
      ~mu:inst.Check.Instance.mu inst.Check.Instance.tmat
  in
  let session = Client.session (`Unix rsock) in
  (match Client.call session (analyze 0) with
  | Ok (reply, _) ->
    Alcotest.(check bool) "pre-kill ok" true (Protocol.reply_ok reply);
    (match Json.member "verdict" reply with
    | Some v -> Alcotest.(check string) "pre-kill bytes" expected (Json.to_string v)
    | None -> Alcotest.fail "analyze reply without verdict")
  | Error e -> Alcotest.fail ("pre-kill analyze failed: " ^ e));
  stop_daemon primary;
  (* Poll until the monitor promotes the follower and service resumes;
     session retries absorb the overloaded window. *)
  let deadline = 200 in
  let rec await n =
    if n >= deadline then Alcotest.fail "failover never completed"
    else
      match Client.call session (analyze (1000 + n)) with
      | Ok (reply, _) when Protocol.reply_ok reply -> reply
      | _ ->
        Thread.delay 0.05;
        await (n + 1)
  in
  let reply = await 0 in
  (match Json.member "verdict" reply with
  | Some v ->
    Alcotest.(check string) "post-failover bytes" expected (Json.to_string v)
  | None -> Alcotest.fail "post-failover reply without verdict");
  (match List.assoc_opt "promotions" (Router.stats_fields router) with
  | Some (Json.Int n) -> Alcotest.(check int) "one promotion" 1 n
  | _ -> Alcotest.fail "router stats without promotions");
  Client.close_session session;
  stop_router r;
  stop_daemon follower;
  rm pj;
  rm fj

let test_health_breaker () =
  (* The latency breaker state machine: Closed opens on an EWMA over
     the limit, cools down to Half_open on the probe stream, and a
     fast trial recovers (restarting the EWMA) while a slow one
     re-opens.  The crash edge — [`Failed] exactly on the threshold-th
     consecutive failure — is untouched by any of it. *)
  let h = Health.create ~threshold:3 ~latency_limit_ms:10. ~cooldown:2 () in
  Alcotest.(check string) "starts closed" "closed" (Health.state_name h);
  Alcotest.(check bool) "fast probe ok" true (Health.note h ~latency_ms:1. ~ok:true () = `Ok);
  Alcotest.(check bool) "still ok" true (Health.note h ~latency_ms:2. ~ok:true () = `Ok);
  Alcotest.(check string) "fast probes keep it closed" "closed" (Health.state_name h);
  (* One grossly slow probe drags the EWMA (alpha 0.3) over 10 ms. *)
  Alcotest.(check bool) "slow probe opens" true
    (Health.note h ~latency_ms:100. ~ok:true () = `Opened);
  Alcotest.(check string) "open" "open" (Health.state_name h);
  let frozen = Health.ewma_ms h in
  (* While open the EWMA is frozen and [cooldown] probes tick it to
     half-open; the transition itself is not news. *)
  Alcotest.(check bool) "cooldown 1" true (Health.note h ~latency_ms:100. ~ok:true () = `Ok);
  Alcotest.(check string) "still open" "open" (Health.state_name h);
  Alcotest.(check bool) "cooldown 2" true (Health.note h ~latency_ms:100. ~ok:true () = `Ok);
  Alcotest.(check string) "half-open after cooldown" "half_open" (Health.state_name h);
  Alcotest.(check (float 0.001)) "ewma frozen while open" frozen (Health.ewma_ms h);
  (* Slow trial: straight back to open. *)
  Alcotest.(check bool) "slow trial re-opens" true
    (Health.note h ~latency_ms:50. ~ok:true () = `Ok);
  Alcotest.(check string) "re-opened" "open" (Health.state_name h);
  Alcotest.(check bool) "cooldown again 1" true (Health.note h ~latency_ms:50. ~ok:true () = `Ok);
  Alcotest.(check bool) "cooldown again 2" true (Health.note h ~latency_ms:50. ~ok:true () = `Ok);
  Alcotest.(check string) "half-open again" "half_open" (Health.state_name h);
  (* Fast trial: recovered, EWMA restarted from the trial sample. *)
  Alcotest.(check bool) "fast trial recovers" true
    (Health.note h ~latency_ms:3. ~ok:true () = `Recovered);
  Alcotest.(check string) "closed again" "closed" (Health.state_name h);
  Alcotest.(check (float 0.001)) "ewma restarted" 3. (Health.ewma_ms h);
  Alcotest.(check int) "two opens counted" 2 (Health.opens h);
  (* Crash edge: exactly one [`Failed], on the third failure in a row. *)
  Alcotest.(check bool) "failure 1" true (Health.note h ~ok:false () = `Ok);
  Alcotest.(check bool) "failure 2" true (Health.note h ~ok:false () = `Ok);
  Alcotest.(check bool) "failure 3 crosses" true (Health.note h ~ok:false () = `Failed);
  Alcotest.(check bool) "staying down is not news" true (Health.note h ~ok:false () = `Ok)

let test_router_hedging () =
  (* One shard, latency faults at rate 1: the primary cannot answer
     before the hedge delay, so every analyze re-issues on the
     follower.  The winning reply must be byte-identical to a local
     check, and both journals must end up holding the same record —
     the byte-exactness that makes hedging safe. *)
  let pj = fresh_path ".store" and fj = fresh_path ".store" in
  let primary = boot_daemon pj in
  let follower = boot_daemon fj in
  let _, _, psock = primary and _, _, fsock = follower in
  let specs =
    [
      {
        Router.primary = `Unix psock;
        follower = Some (`Unix fsock);
        journal = Some pj;
      };
    ]
  in
  let r = boot_router ~hedge:(Router.Fixed_ms 0) specs in
  let router, _, rsock = r in
  let instances = Array.init 6 (fun i -> Check.Gen.ith ~seed:19 ~size:4 i) in
  let plan = Fault.Plan.make ~rate:1.0 ~seed:5 ~delay_ms:15 ~classes:[ "latency" ] () in
  Fault.Plan.arm plan;
  let session = Client.session (`Unix rsock) in
  Array.iteri
    (fun i inst ->
      match
        Client.call session
          (Protocol.analyze ~id:(Json.Int i) ~mu:inst.Check.Instance.mu
             inst.Check.Instance.tmat)
      with
      | Ok (reply, _) ->
        Alcotest.(check bool) "hedged analyze ok" true (Protocol.reply_ok reply);
        (match Json.member "verdict" reply with
        | Some v ->
          Alcotest.(check string) "first reply byte-exact" (direct_verdict inst)
            (Json.to_string v)
        | None -> Alcotest.fail "analyze reply without verdict")
      | Error e -> Alcotest.fail ("hedged analyze failed: " ^ e))
    instances;
  Fault.Plan.disarm ();
  let stats = Router.stats_fields router in
  (match List.assoc_opt "hedges" stats with
  | Some (Json.Int n) -> Alcotest.(check bool) "hedges fired" true (n >= 1)
  | _ -> Alcotest.fail "router stats without hedges");
  Client.close_session session;
  stop_router r;
  stop_daemon primary;
  stop_daemon follower;
  (* Both sides computed the same request stream: each journal holds
     the identical record for every instance. *)
  let sp = Store.open_ pj and sf = Store.open_ fj in
  Array.iter
    (fun (inst : Check.Instance.t) ->
      let find s =
        match Store.find s ~mu:inst.Check.Instance.mu inst.Check.Instance.tmat with
        | Some e -> Json.to_string (Protocol.json_of_wire (Protocol.wire_of_entry e))
        | None -> Alcotest.fail "hedged instance missing from a journal"
      in
      let on_primary = find sp and on_follower = find sf in
      Alcotest.(check string) "hedged pair byte-identical" on_primary on_follower;
      Alcotest.(check string) "and equal to ground truth" (direct_verdict inst)
        on_primary)
    instances;
  Store.close sp;
  Store.close sf;
  rm pj;
  rm fj

let suite =
  [
    Alcotest.test_case "ring placement" `Quick test_ring_placement;
    Alcotest.test_case "snapshot round trip" `Quick test_snapshot_roundtrip;
    Alcotest.test_case "snapshot truncated footer" `Quick
      test_snapshot_truncated_footer;
    Alcotest.test_case "snapshot bit-flipped index" `Quick test_snapshot_bit_flip;
    Alcotest.test_case "snapshot journal-tail precedence" `Quick
      test_snapshot_tail_precedence;
    Alcotest.test_case "snapshot open is O(1)" `Quick test_snapshot_open_is_o1;
    Alcotest.test_case "ship op" `Quick test_ship_op;
    Alcotest.test_case "shipper pump" `Quick test_shipper_pump;
    Alcotest.test_case "router differential" `Quick test_router_differential;
    Alcotest.test_case "router failover" `Quick test_router_failover;
    Alcotest.test_case "health breaker" `Quick test_health_breaker;
    Alcotest.test_case "router hedging" `Quick test_router_hedging;
    Alcotest.test_case "router hedge patches raw frames" `Quick test_router_hedge_raw;
    Alcotest.test_case "router head-of-line" `Quick test_router_head_of_line;
  ]
