(* The two workloads and the per-layer probes of their traced runs.

   A run is a fixed number of ops, derived from the run length at a
   nominal rate, never a fixed duration: the daemon's store and RSS
   grow with the ops it serves, so a faster program must not be handed
   more work. *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type outcome = {
  attempted : int;
  failed : int;
  setup_failed : int;   (** Warm-up and fill ops that failed. *)
  metrics : metric list;
  diag : (string * Json.t) list;
}

type params = {
  seed : int;
  seconds : int;
  traced : bool;
  program : string;
  plant_mismatch : bool;
  scale : float;  (** Multiplies every op count (smoke runs). *)
}

(* Ops of a run at [per_s] nominal ops per second of run length. *)
let count p ~least per_s = max least (int_of_float (p.scale *. per_s *. float_of_int p.seconds))

(* The seed the benchmark was tuned on.  The in-process layer replays
   always use it, whatever seed a run is given: their figures compare
   across runs and commits but do not follow the workload seed. *)
let replay_seed = 1

let floats a = Json.Arr (Array.to_list (Array.map (fun x -> Json.Float x) a))
let json_of_metrics l = Json.Obj (List.map (fun x -> (x.name, Json.Float x.value)) l)
let value metrics name = (List.find (fun x -> x.name = name) metrics).value

(* A slice in which the hypervisor stole more than this share of the
   VM's CPU time measured the host, not the program: on the build host
   such phases last minutes and halve the served throughput. *)
let max_steal = 0.03

(* Set up [reps] times, keep the last set-up and report the median
   set-up time over the set-ups the hypervisor left alone (over all of
   them when it left none alone); earlier set-ups are torn down by
   [discard].  Each set-up starts after a full major collection, so none
   pays for collecting the garbage of the one before. *)
let repeated_setup ~reps ~discard f =
  let times = Array.make reps 0. and steal = Array.make reps 0. in
  let rec go i =
    Gc.full_major ();
    let s0 = Measure.steal_ticks () in
    let st, s = Measure.time_s f in
    times.(i) <- s;
    steal.(i) <- Measure.steal_share ~ticks:(Measure.steal_ticks () -. s0) ~wall_s:s;
    if i + 1 < reps then begin
      discard st;
      go (i + 1)
    end
    else st
  in
  let st = go 0 in
  let clean = List.filter (fun i -> steal.(i) <= max_steal) (List.init reps Fun.id) in
  let counted = if clean = [] then times else Array.of_list (List.map (Array.get times) clean) in
  (st, Measure.median counted, times, steal)

(* The slices of a timed window that the hypervisor left alone. *)
let clean_slices (d : Served.drive) =
  List.filter (fun k -> d.Served.chunk_steal.(k) <= max_steal)
    (List.init (Array.length d.Served.chunk_ops_per_s) Fun.id)

(* A window is steady when at least half of its slices are clean. *)
let steady_enough (d : Served.drive) =
  2 * List.length (clean_slices d) >= Array.length d.Served.chunk_ops_per_s

(* The slices a window's figures come from: the clean ones, or, in a
   window that is not steady, the half the hypervisor stole least from. *)
let used_slices (d : Served.drive) =
  if steady_enough d then clean_slices d
  else
    let chunks = Array.length d.Served.chunk_steal in
    let by_steal =
      List.stable_sort
        (fun a b -> compare d.Served.chunk_steal.(a) d.Served.chunk_steal.(b))
        (List.init chunks Fun.id)
    in
    List.sort compare (List.filteri (fun i _ -> 2 * i < chunks) by_steal)

(* Steal over a window's used slices: the lower, the better the window. *)
let used_steal d = List.fold_left (fun acc k -> acc +. d.Served.chunk_steal.(k)) 0. (used_slices d)

(* The end-to-end figures of one timed window, over its [used] slices.
   Throughput is the median over those slices.  The tail is the highest
   percentile with ten samples beyond it in each slice (2000 ops or
   more), median over the slices: one burst of host noise moves one
   slice, not the tail. *)
let e2e ~(d : Served.drive) ~used ~setup_s ~rss_mb =
  let n = Array.length d.Served.lat_ms in
  let chunks = Array.length d.Served.chunk_ops_per_s in
  let slice k = Array.sub d.Served.lat_ms (k * n / chunks) (((k + 1) * n / chunks) - (k * n / chunks)) in
  let over f = Array.of_list (List.map f used) in
  let lat = Array.concat (List.map slice used) in
  let pct = Measure.tail_percent (n / chunks) in
  let tail k = Measure.percentile (Measure.sorted_copy (slice k)) (float_of_int pct /. 100.) in
  let cpu_s = Array.fold_left ( +. ) 0. (over (fun k -> d.Served.chunk_cpu_s.(k))) in
  let metrics =
    [
      m "ops_per_s" "1/s" (Measure.median (over (fun k -> d.Served.chunk_ops_per_s.(k))));
      m "p50_ms" "ms" (Measure.median lat);
      m "tail_ms" "ms" (Measure.median (over tail));
      m "cpu_us_per_op" "us" (1e6 *. cpu_s /. float_of_int (Array.length lat));
      m "setup_s" "s" setup_s;
      m "peak_rss_mb" "MB" rss_mb;
    ]
  in
  let diag =
    [
      ("ops", Json.Int n);
      ("fail_rate", Json.Float (float_of_int d.Served.failed /. float_of_int n));
      ("tail_percentile", Json.Int pct);
      ("tail_samples_per_slice", Json.Int (n / chunks));
      ("slices_used", Json.Int (List.length used));
      ("window_s", Json.Float d.Served.wall_s);
      ("slice_ops_per_s", floats d.Served.chunk_ops_per_s);
      ("slice_tail_ms", floats (Array.init chunks tail));
      ("slice_steal_pct", floats (Array.map (fun x -> 100. *. x) d.Served.chunk_steal));
    ]
  in
  (metrics, diag)

(* ---------------------------- served set-up ---------------------------- *)

let d_sock = `Unix "d.sock"
let r_sock = `Unix "r.sock"

type served = {
  daemon : Served.proc;
  router : Served.proc option;
  insts : Check.Instance.t array;   (** Timed ops cycle over these. *)
  expect : string array;
  setup_failed : int;
  phases : (string * float) list;   (** Seconds spent in each step of the set-up. *)
  conns : int;                      (** Closed-loop connections of the timed windows. *)
}

let files = [ "d.journal"; "d.sock"; "d.out"; "d.err"; "d.trace.json"; "r.sock"; "r.out"; "r.err" ]

(* The store never syncs its journal within a run.  With the CLI's
   default (one fsync per 32 appends) the tail of verdict-cold measured
   the shared disk: over six seeds run interleaved on one host, its
   spread was 0.25 of its median with syncs and 0.11 without. *)
let serve_args ~traced =
  [ "serve"; "--socket"; "d.sock"; "--store"; "d.journal"; "--jobs"; "1"; "--fsync-every"; "1000000" ]
  @ if traced then [ "--trace=d.trace.json"; "--format"; "json" ] else []

let teardown st =
  Option.iter Served.stop st.router;
  Served.stop st.daemon;
  List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) files

(* An untimed pass over [insts]; returns the failed ops. *)
let warm_pass ~addr insts expect =
  (Served.drive ~addr ~chunks:1 ~n:(Array.length insts)
     ~inst:(fun i -> insts.(i)) ~expect:(fun i -> expect.(i)) ()).Served.failed

(* verdict-cold: a fresh store and a fresh daemon; every request is a
   distinct instance.  The warm-up slice precedes the timed slice in the
   same stream, so the two never share a mapping matrix. *)
let cold_setup p ~traced ~n () =
  let warm = max 20 (n / 20) in
  Engine.Cache.clear ();
  let (all, expect), inputs_s =
    Measure.time_s (fun () ->
        let all = Served.distinct_stream ~seed:p.seed (warm + n) in
        (all, Array.map Served.expected_bytes all))
  in
  let daemon, spawn_s =
    Measure.time_s (fun () ->
        let d = Served.spawn ~program:p.program ~name:"d" (serve_args ~traced) in
        Served.wait_ready d d_sock;
        d)
  in
  let setup_failed, warm_s =
    Measure.time_s (fun () -> warm_pass ~addr:d_sock (Array.sub all 0 warm) (Array.sub expect 0 warm))
  in
  {
    daemon;
    router = None;
    insts = Array.sub all warm n;
    expect = Array.sub expect warm n;
    setup_failed;
    phases = [ ("inputs", inputs_s); ("spawn", spawn_s); ("warm", warm_s) ];
    conns = 2;
  }

(* verdict-warm-routed: the daemon's store is filled with [warm_distinct]
   instances, then a one-shard router (no follower, hedging off, health
   probes idle for the whole run) fronts it and is warmed over them. *)
let warm_distinct = 1024

let warm_setup p ~traced () =
  Engine.Cache.clear ();
  let (insts, expect), inputs_s =
    Measure.time_s (fun () ->
        let insts = Served.distinct_stream ~seed:p.seed warm_distinct in
        (insts, Array.map Served.expected_bytes insts))
  in
  let spawned name args addr =
    Measure.time_s (fun () ->
        let proc = Served.spawn ~program:p.program ~name args in
        Served.wait_ready proc addr;
        proc)
  in
  let daemon, daemon_s = spawned "d" (serve_args ~traced) d_sock in
  let fill_failed, fill_s = Measure.time_s (fun () -> warm_pass ~addr:d_sock insts expect) in
  let router, router_s =
    spawned "r"
      [ "route"; "--socket"; "r.sock"; "--shard"; "d.sock"; "--hedge-delay-ms=-1";
        "--health-interval-ms"; "3600000" ]
      r_sock
  in
  let warm_failed, warm_s = Measure.time_s (fun () -> warm_pass ~addr:r_sock insts expect) in
  {
    daemon;
    router = Some router;
    insts;
    expect;
    setup_failed = fill_failed + warm_failed;
    phases = [ ("inputs", inputs_s); ("spawn", daemon_s +. router_s); ("warm", fill_s +. warm_s) ];
    (* One connection: with two, the harness, the router and the daemon
       contend for the host's two cores and the tail measures the
       scheduler. *)
    conns = 1;
  }

let pids st = st.daemon.Served.pid :: (match st.router with Some r -> [ r.Served.pid ] | None -> [])

let sum f l = List.fold_left (fun acc x -> acc +. f x) 0. l

(* Ops per slice of a timed window: enough for a p99 with ten samples
   beyond it, few enough that a burst of steal spoils few slices. *)
let slice_ops = 2000

(* One timed window of [n] ops against [addr], op [i] sending instance
   [i mod len], in slices of about [slice_ops] ops (at least 20); returns
   the drive and the CPU seconds each of [pids st] spent in it. *)
let timed ~p st ~addr ~n =
  let len = Array.length st.insts in
  let expect =
    if p.plant_mismatch then Array.mapi (fun i e -> if i = 0 then e ^ " " else e) st.expect
    else st.expect
  in
  let cpu0 = List.map Measure.cpu_s (pids st) in
  let d =
    Served.drive ~pids:(pids st) ~conns:st.conns ~addr ~chunks:(max 20 (n / slice_ops)) ~n
      ~inst:(fun i -> st.insts.(i mod len))
      ~expect:(fun i -> expect.(i mod len))
      ()
  in
  (d, List.map2 (fun pid c0 -> Measure.cpu_s pid -. c0) (pids st) cpu0)

(* A window that is not steady is measured once more on a fresh set-up
   after a pause, if that fits before [retry_deadline_s] after the
   harness started: a run must not stretch much past a minute however
   busy the host is, or a series of runs overruns its time.  When no window is steady the
   run still reports, from the window with the least steal, and says so
   in [diag.steady] and on standard error. *)
let started = Measure.now_ns ()
let retry_deadline_s = 60.
let retry_pause_s = 5.

(* The median of each set-up step over the set-ups. *)
let median_phases = function
  | [] -> []
  | first :: _ as all ->
    List.map
      (fun (name, _) -> (name, Json.Float (Measure.median (Array.of_list (List.map (List.assoc name) all)))))
      first

type window = { d : Served.drive; cpu : float list; rss : float }

let served_run p ~reps ~setup ~addr ~n =
  let phases = ref [] in
  let recorded () =
    let st = setup () in
    phases := st.phases :: !phases;
    st
  in
  let st, setup_s, setups, setup_steal = repeated_setup ~reps ~discard:teardown recorded in
  let attempted = ref 0 and failed = ref 0 and setup_failed = ref 0 and clean = ref [] in
  let measure st =
    let t0 = Measure.now_ns () in
    let w =
      Fun.protect ~finally:(fun () -> teardown st) @@ fun () ->
      let d, cpu = timed ~p st ~addr ~n in
      { d; cpu; rss = sum Measure.peak_rss_mb (pids st) }
    in
    attempted := !attempted + n;
    failed := !failed + w.d.Served.failed;
    setup_failed := !setup_failed + st.setup_failed;
    clean := !clean @ [ List.length (clean_slices w.d) ];
    (w, Measure.elapsed_s t0)
  in
  let first, took = measure st in
  let w =
    if steady_enough first.d
       || Measure.elapsed_s started +. retry_pause_s +. setup_s +. took >= retry_deadline_s
    then first
    else begin
      Unix.sleepf retry_pause_s;
      let second, _ = measure (setup ()) in
      if steady_enough second.d || used_steal second.d < used_steal first.d then second else first
    end
  in
  let steady = steady_enough w.d in
  if not steady then
    Printf.eprintf
      "perfbench: host noisy: no window had half its slices under %.0f%% steal (clean slices: %s); \
       the figures come from the least-stolen half of the best window\n%!"
      (100. *. max_steal) (String.concat ", " (List.map string_of_int !clean));
  let d = w.d in
  let metrics, diag = e2e ~d ~used:(used_slices d) ~setup_s ~rss_mb:w.rss in
  {
    attempted = !attempted;
    failed = !failed;
    setup_failed = !setup_failed;
    metrics;
    diag =
      diag
      @ [
          ("setup_s_each", floats setups);
          ("setup_steal_pct_each", floats (Array.map (fun x -> 100. *. x) setup_steal));
          ("setup_phases_s", Json.Obj (median_phases (List.rev !phases)));
          ("steady", Json.Bool steady);
          ("windows_clean_slices", Json.Arr (List.map (fun c -> Json.Int c) !clean));
          ("cpu_s_each_process", floats (Array.of_list w.cpu));
        ];
  }

(* ------------------------- server span analysis ------------------------ *)

type span = { sname : string; start : float; dur : float; op : string; kids : span list }

let rec span_of j =
  let str k j = match Json.member k j with Some (Json.Str s) -> s | _ -> "" in
  let num k =
    match Json.member k j with Some (Json.Float f) -> f | Some (Json.Int i) -> float_of_int i | _ -> 0.
  in
  {
    sname = str "name" j;
    start = num "start_ms";
    dur = num "dur_ms";
    op = (match Json.member "args" j with Some a -> str "op" a | None -> "");
    kids = (match Json.member "children" j with Some (Json.Arr l) -> List.map span_of l | _ -> []);
  }

(* The analyze requests in the traced daemon's drain report, by start. *)
let request_spans out_file =
  match Json.parse ~max_bytes:max_int ~max_depth:1024 (Measure.read_file out_file) with
  | Error e -> failwith ("daemon report: " ^ e)
  | Ok doc ->
    let roots =
      match Json.member "spans" doc with
      | Some (Json.Arr l) -> List.map span_of l
      | _ -> failwith "daemon report carries no spans"
    in
    let reqs =
      Array.of_list (List.filter (fun s -> s.sname = "server.request" && s.op = "analyze") roots)
    in
    Array.stable_sort (fun a b -> compare a.start b.start) reqs;
    reqs

let rec named_ms name s =
  if s.sname = name then s.dur else List.fold_left (fun acc k -> acc +. named_ms name k) 0. s.kids

(* Mean microseconds per request: the request span, the analysis inside
   it, and its self time (the span minus its children). *)
let server_split reqs =
  let per f =
    1000. *. Array.fold_left (fun acc s -> acc +. f s) 0. reqs /. float_of_int (Array.length reqs)
  in
  let kids_ms f s = List.fold_left (fun acc k -> acc +. f k) 0. s.kids in
  ( per (fun s -> s.dur),
    per (kids_ms (named_ms "analysis.check")),
    per (fun s -> s.dur -. kids_ms (fun k -> k.dur) s) )

(* The daemon's counters over a window: differences of two [stats] replies. *)
let server_counters before after ~n =
  let d path = float_of_int (Served.int_at path after - Served.int_at path before) in
  let ratio a b = if b > 0. then a /. b else 0. in
  let hits = d [ "store"; "hits" ] and misses = d [ "store"; "misses" ] in
  [
    m "server.store_hit_rate" "ratio" (ratio hits (hits +. misses));
    m "server.store_appends" "count" (d [ "store"; "appended" ]);
    m "server.fastpath_rate" "ratio" (d [ "fastpath" ] /. float_of_int n);
    m "server.coalesced" "count" (d [ "singleflight"; "coalesced" ]);
    m "server.shed" "count" (d [ "shed" ]);
    m "server.mean_batch" "count" (ratio (d [ "batched" ]) (d [ "batches" ]));
  ]

(* The router's counters over a window, for its one shard. *)
let cluster_counters before after =
  let shard j = match Json.member "shards" j with Some (Json.Arr [ s ]) -> s | _ -> Json.Null in
  let d path a b = float_of_int (Served.int_at path b - Served.int_at path a) in
  [
    m "cluster.forwarded" "count" (d [ "forwarded" ] (shard before) (shard after));
    m "cluster.hedges" "count" (d [ "hedges" ] before after);
  ]

(* --------------------------- per-layer catalogue ----------------------- *)

let layer_names =
  [
    ("linalg.hnf_us", "us"); ("linalg.hnf_words", "words");
    ("mapping.family_build_us", "us"); ("mapping.family_hit_rate", "ratio");
    ("mapping.family_residual_rate", "ratio");
    ("engine.check_us", "us"); ("engine.check_words", "words"); ("engine.cache_hit_rate", "ratio");
    ("server.request_us", "us"); ("server.analysis_us", "us"); ("server.request_self_us", "us");
    ("server.outside_us", "us"); ("server.cpu_us_per_op", "us");
    ("server.store_hit_rate", "ratio"); ("server.store_appends", "count");
    ("server.fastpath_rate", "ratio"); ("server.coalesced", "count"); ("server.shed", "count");
    ("server.mean_batch", "count");
    ("cluster.hop_us", "us"); ("cluster.router_cpu_us_per_op", "us");
    ("cluster.forwarded", "count"); ("cluster.hedges", "count");
    ("systolic.compile_ms", "ms"); ("systolic.wavefront_ms", "ms"); ("systolic.verify_ms", "ms");
    ("systolic.kernel_cells_per_s", "1/s"); ("systolic.words_per_cell", "words");
    ("systolic.cells", "count"); ("systolic.levels", "count");
    ("trace.ops_per_s_overhead_pct", "%"); ("trace.p50_overhead_pct", "%");
  ]

(* Every per-layer metric, in catalogue order: a layer the workload does
   not exercise did no work in it and reads 0. *)
let complete measured =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun x -> x.name = name) measured with
      | Some x -> x
      | None -> m name unit_ 0.)
    layer_names

(* Tracing overhead: how much slower the traced window ran than the
   untraced one of the same size, in percent. *)
let overhead ~untraced ~traced =
  let pct name = 100. *. ((value traced name /. value untraced name) -. 1.) in
  [ m "trace.ops_per_s_overhead_pct" "%" (-.pct "ops_per_s"); m "trace.p50_overhead_pct" "%" (pct "p50_ms") ]

(* --------------------------- in-process layers ------------------------- *)

(* linalg, mapping and engine, timed by calling their public functions
   over the first 2000 instances of the verdict-cold stream of
   [replay_seed].  Word counts are minor-heap words per call. *)
let replay_layers () =
  let insts = Served.distinct_stream ~seed:replay_seed 2000 in
  let n = float_of_int (Array.length insts) in
  let tmat (x : Check.Instance.t) = x.Check.Instance.tmat in
  let check (x : Check.Instance.t) = Analysis.check ~mu:x.Check.Instance.mu (tmat x) in
  let median_us f =
    1e6
    *. Measure.median
         (Array.map (fun x -> snd (Measure.time_s (fun () -> Sys.opaque_identity (f x)))) insts)
  in
  let words f =
    snd (Measure.minor_words (fun () -> Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) insts))
    /. n
  in
  let hnf x = Hnf.compute (tmat x) in
  let hnf_words = words hnf in
  (* Cold checks: every instance has its own T and the caches start
     empty, so each check pays for the whole cascade. *)
  Engine.Cache.clear ();
  Obs.Metrics.reset ();
  let check_words = words check in
  let counters = Obs.Metrics.snapshot () and cache = Engine.Cache.stats () in
  Engine.Cache.clear ();
  let check_us = median_us check in
  Engine.Cache.clear ();
  let c name = float_of_int (Obs.Metrics.counter_value counters name) in
  let evaluated = c "family.hits" +. c "family.residual" in
  let lookups = float_of_int (cache.Engine.Cache.hits + cache.Engine.Cache.misses) in
  let ratio a b = if b > 0. then a /. b else 0. in
  [
    m "linalg.hnf_us" "us" (median_us hnf);
    m "linalg.hnf_words" "words" hnf_words;
    m "mapping.family_build_us" "us" (median_us (fun x -> Family.build (tmat x)));
    m "mapping.family_hit_rate" "ratio" (ratio (c "family.hits") evaluated);
    m "mapping.family_residual_rate" "ratio" (ratio (c "family.residual") evaluated);
    m "engine.check_us" "us" check_us;
    m "engine.check_words" "words" check_words;
    m "engine.cache_hit_rate" "ratio" (ratio (float_of_int cache.Engine.Cache.hits) lookups);
  ]

(* ---------------------------- systolic probe --------------------------- *)

(* lib/systolic has no workload of its own: an in-process executor
   workload swung by a third between runs on the build host, beyond any
   bound the benchmark may set.  Its layer metrics come from this probe
   in the traced verdict-cold run.  One op runs matmul-32 over float and
   then tc-32 over int under the optimal Pi on a one-domain pool, with
   the simulator cross-check off and verification on; an op fails unless
   both cells verify. *)
let exec_cells =
  [
    (Scenario.scenario "matmul" ~mu:32, (module Scenario.Float_type : Scenario.TYPE));
    (Scenario.scenario "tc" ~mu:32, (module Scenario.Int_type : Scenario.TYPE));
  ]

let systolic_layers ~ops =
  let pool = Engine.Pool.create ~jobs:1 () in
  let exec_op () =
    List.map (fun (spec, ty) -> Scenario.run_cell ~pool ~sim_limit:0 spec ty) exec_cells
  in
  ignore (exec_op ());
  (* Allocation per index point, counted untraced after a warm-up op. *)
  let cells, words = Measure.minor_words exec_op in
  let total f = List.fold_left (fun acc (c : Scenario.cell) -> acc + f c) 0 cells in
  let per_op_cells = total (fun c -> c.Scenario.cells) in
  Obs.Trace.enable ();
  let results = List.init ops (fun _ -> exec_op ()) in
  Obs.Trace.disable ();
  let failed =
    List.length (List.filter (List.exists (fun (c : Scenario.cell) -> not c.Scenario.verified)) (cells :: results))
  in
  let spans = Obs.Trace.aggregate (Obs.Trace.spans ()) in
  let span_s name = List.fold_left (fun acc (k, _, s) -> if k = name then acc +. s else acc) 0. spans in
  let per_op_ms name = 1000. *. span_s name /. float_of_int ops in
  ( [
      m "systolic.compile_ms" "ms" (per_op_ms "exec.compile");
      m "systolic.wavefront_ms" "ms" (per_op_ms "exec.wavefront");
      m "systolic.verify_ms" "ms" (per_op_ms "exec.verify");
      m "systolic.kernel_cells_per_s" "1/s" (float_of_int (ops * per_op_cells) /. span_s "exec.wavefront");
      m "systolic.words_per_cell" "words" (words /. float_of_int per_op_cells);
      m "systolic.cells" "count" (float_of_int per_op_cells);
      m "systolic.levels" "count" (float_of_int (total (fun c -> c.Scenario.levels)));
    ],
    ops + 1,
    failed )

(* ------------------------------ served runs ---------------------------- *)

(* A traced served run.  An untraced window, then the same window on a
   freshly set-up traced daemon: the difference is the tracing overhead,
   and the traced window gives the per-layer split.  [after] may send
   more traffic once the traced window is done; it returns its layer
   metrics and the number of analyze requests it sent. *)
let served_traced p ~setup ~addr ~n ~after =
  let plain = served_run { p with traced = false } ~reps:1 ~setup:(setup ~traced:false) ~addr ~n in
  let st = setup ~traced:true () in
  let stopped = ref false in
  let stop_all () =
    if not !stopped then begin
      stopped := true;
      Option.iter Served.stop st.router;
      Served.stop st.daemon
    end
  in
  Fun.protect ~finally:(fun () -> stop_all (); teardown st) @@ fun () ->
  let s0 = Served.stats d_sock and r0 = Option.map (fun _ -> Served.stats r_sock) st.router in
  let d, cpu = timed ~p st ~addr ~n in
  let s1 = Served.stats d_sock and r1 = Option.map (fun _ -> Served.stats r_sock) st.router in
  let rss = sum Measure.peak_rss_mb (pids st) in
  (* The overhead figures carry no bound, so a traced window that is
     not steady is not measured again, only flagged. *)
  let steady = steady_enough d in
  let traced, _ = e2e ~d ~used:(used_slices d) ~setup_s:0. ~rss_mb:rss in
  let more, sent_after = after st d in
  (* The drain report carries the spans. *)
  stop_all ();
  let reqs = request_spans st.daemon.Served.out in
  let window = Array.sub reqs (Array.length reqs - n - sent_after) n in
  let request_us, analysis_us, self_us = server_split window in
  let finite = Array.of_list (List.filter Float.is_finite (Array.to_list d.Served.lat_ms)) in
  let per_op s = 1e6 *. s /. float_of_int n in
  let cluster =
    match (r0, r1, cpu) with
    | Some r0, Some r1, [ _; router_cpu ] ->
      m "cluster.router_cpu_us_per_op" "us" (per_op router_cpu) :: cluster_counters r0 r1
    | _ -> []
  in
  let layers =
    [
      m "server.request_us" "us" request_us;
      m "server.analysis_us" "us" analysis_us;
      m "server.request_self_us" "us" self_us;
      m "server.outside_us" "us" ((1000. *. Measure.mean finite) -. request_us);
      m "server.cpu_us_per_op" "us" (per_op (List.hd cpu));
    ]
    @ server_counters s0 s1 ~n @ cluster @ more
    @ overhead ~untraced:plain.metrics ~traced
  in
  {
    attempted = plain.attempted + n;
    failed = plain.failed + d.Served.failed;
    setup_failed = plain.setup_failed + st.setup_failed;
    metrics = layers;
    diag =
      [
        ("untraced_window", json_of_metrics plain.metrics);
        ("traced_window", json_of_metrics traced);
        ("traced_window_steady", Json.Bool steady);
        ("traced_requests", Json.Int (Array.length reqs));
      ];
  }

(* A traced run measures two smaller windows, untraced and traced: the
   traced daemon's drain report holds a span tree per request. *)
let verdict_cold p =
  if not p.traced then
    let n = count p ~least:100 3000. in
    served_run p ~reps:5 ~setup:(cold_setup p ~traced:false ~n) ~addr:d_sock ~n
  else
    (* The in-process probes run first, while the process's caches have
       never been used, so their word counts repeat exactly. *)
    let replayed = replay_layers () in
    let systolic, exec_ops, exec_failed = systolic_layers ~ops:4 in
    let n = count p ~least:100 600. in
    let o =
      served_traced p ~setup:(fun ~traced -> cold_setup p ~traced ~n) ~addr:d_sock ~n
        ~after:(fun _ _ -> ([], 0))
    in
    {
      o with
      attempted = o.attempted + exec_ops;
      failed = o.failed + exec_failed;
      metrics = complete (replayed @ systolic @ o.metrics);
    }

let verdict_warm_routed p =
  if not p.traced then
    let n = count p ~least:100 12000. in
    (* Set-up takes a third of a second here, so seven of them give its
       median. *)
    served_run p ~reps:7 ~setup:(warm_setup p ~traced:false) ~addr:r_sock ~n
  else
    let n = count p ~least:100 2000. in
    (* The router hop: the same warm instances sent straight to the
       shard right after the routed window. *)
    let direct st (routed : Served.drive) =
      let d, _ = timed ~p st ~addr:d_sock ~n in
      let p50 (x : Served.drive) = Measure.median x.Served.lat_ms in
      ([ m "cluster.hop_us" "us" (1000. *. (p50 routed -. p50 d)) ], n)
    in
    let o = served_traced p ~setup:(fun ~traced -> warm_setup p ~traced) ~addr:r_sock ~n ~after:direct in
    { o with metrics = complete o.metrics }

let all = [ ("verdict-cold", verdict_cold); ("verdict-warm-routed", verdict_warm_routed) ]
