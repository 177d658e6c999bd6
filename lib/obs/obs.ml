module Clock = struct
  let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9
end

module Trace = struct
  type span = {
    id : int;
    parent : int option;
    name : string;
    domain : int;
    start_s : float;
    dur_s : float;
    args : (string * string) list;
  }

  let capacity = 1_000_000

  let enabled_flag = Atomic.make false
  let epoch = Atomic.make 0. (* boxed float; written only by [enable] *)
  let next_id = Atomic.make 0
  let dropped_count = Atomic.make 0
  let lock = Mutex.create ()
  let completed : span list ref = ref []
  let completed_len = ref 0

  (* Per-thread stack of open span ids, innermost first.  Keyed by
     thread id, not domain: the daemon's event-loop thread, batcher
     workers and the main thread all live in the main domain, and a
     shared per-domain stack would interleave their span trees. *)
  let stacks : (int, int list ref) Hashtbl.t = Hashtbl.create 64
  let stacks_lock = Mutex.create ()

  let my_stack () =
    let tid = Thread.id (Thread.self ()) in
    Mutex.lock stacks_lock;
    let s =
      match Hashtbl.find_opt stacks tid with
      | Some s -> s
      | None ->
        let s = ref [] in
        Hashtbl.add stacks tid s;
        s
    in
    Mutex.unlock stacks_lock;
    s

  let enabled () = Atomic.get enabled_flag

  let clear () =
    Mutex.lock lock;
    completed := [];
    completed_len := 0;
    Mutex.unlock lock;
    Atomic.set dropped_count 0

  let enable () =
    clear ();
    Atomic.set epoch (Unix.gettimeofday ());
    Atomic.set enabled_flag true

  let disable () = Atomic.set enabled_flag false
  let dropped () = Atomic.get dropped_count

  let record sp =
    Mutex.lock lock;
    if !completed_len < capacity then begin
      completed := sp :: !completed;
      incr completed_len;
      Mutex.unlock lock
    end
    else begin
      Mutex.unlock lock;
      Atomic.incr dropped_count
    end

  let with_span ?(args = []) name f =
    if not (Atomic.get enabled_flag) then f ()
    else begin
      let stack = my_stack () in
      let id = Atomic.fetch_and_add next_id 1 in
      let parent = match !stack with [] -> None | p :: _ -> Some p in
      let t0 = Unix.gettimeofday () in
      stack := id :: !stack;
      let finish () =
        (match !stack with
        | s :: rest when s = id -> stack := rest
        | _ -> () (* unbalanced enable/disable mid-span; drop silently *));
        let t1 = Unix.gettimeofday () in
        record
          {
            id;
            parent;
            name;
            domain = (Domain.self () :> int);
            start_s = t0 -. Atomic.get epoch;
            dur_s = t1 -. t0;
            args;
          }
      in
      match f () with
      | v ->
        finish ();
        v
      | exception e ->
        finish ();
        raise e
    end

  let current () =
    if not (Atomic.get enabled_flag) then None
    else match !(my_stack ()) with [] -> None | p :: _ -> Some p

  let with_parent parent f =
    (* Skip the stack bookkeeping entirely when tracing is off: this
       sits on every request's hot path. *)
    if not (Atomic.get enabled_flag) then f ()
    else begin
      let stack = my_stack () in
      let saved = !stack in
      stack := (match parent with None -> [] | Some p -> [ p ]);
      match f () with
      | v ->
        stack := saved;
        v
      | exception e ->
        stack := saved;
        raise e
    end

  let spans () =
    Mutex.lock lock;
    let s = !completed in
    Mutex.unlock lock;
    List.rev s

  let aggregate spans =
    let tbl : (string, int ref * float ref) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun sp ->
        match Hashtbl.find_opt tbl sp.name with
        | Some (count, total) ->
          incr count;
          total := !total +. sp.dur_s
        | None -> Hashtbl.add tbl sp.name (ref 1, ref sp.dur_s))
      spans;
    Hashtbl.fold (fun name (count, total) acc -> (name, !count, !total) :: acc) tbl []
    |> List.sort compare
end

module Metrics = struct
  type counter = int Atomic.t
  type gauge = float ref
  type histogram = {
    mutable count : int;
    mutable sum : float;
    mutable min_s : float;
    mutable max_s : float;
  }

  type hist = { count : int; sum : float; min_v : float; max_v : float }

  type snapshot = {
    counters : (string * int) list;
    gauges : (string * float) list;
    histograms : (string * hist) list;
  }

  let lock = Mutex.create ()
  let counters_tbl : (string, counter) Hashtbl.t = Hashtbl.create 32
  let gauges_tbl : (string, gauge) Hashtbl.t = Hashtbl.create 8
  let histograms_tbl : (string, histogram) Hashtbl.t = Hashtbl.create 8

  let get_or_create tbl name make =
    Mutex.lock lock;
    let v =
      match Hashtbl.find_opt tbl name with
      | Some v -> v
      | None ->
        let v = make () in
        Hashtbl.add tbl name v;
        v
    in
    Mutex.unlock lock;
    v

  let counter name = get_or_create counters_tbl name (fun () -> Atomic.make 0)
  let incr c = Atomic.incr c
  let add c n = ignore (Atomic.fetch_and_add c n)
  let value c = Atomic.get c
  let set_counter c n = Atomic.set c n

  let gauge name = get_or_create gauges_tbl name (fun () -> ref 0.)

  let set_gauge g v =
    Mutex.lock lock;
    g := v;
    Mutex.unlock lock

  let set_gauge_max g v =
    Mutex.lock lock;
    if v > !g then g := v;
    Mutex.unlock lock

  let gauge_value g =
    Mutex.lock lock;
    let v = !g in
    Mutex.unlock lock;
    v

  let histogram name =
    get_or_create histograms_tbl name (fun () ->
        { count = 0; sum = 0.; min_s = infinity; max_s = neg_infinity })

  let observe (h : histogram) v =
    Mutex.lock lock;
    h.count <- h.count + 1;
    h.sum <- h.sum +. v;
    if v < h.min_s then h.min_s <- v;
    if v > h.max_s then h.max_s <- v;
    Mutex.unlock lock

  let snapshot () =
    Mutex.lock lock;
    let cs = Hashtbl.fold (fun n c acc -> (n, Atomic.get c) :: acc) counters_tbl [] in
    let gs = Hashtbl.fold (fun n g acc -> (n, !g) :: acc) gauges_tbl [] in
    let hs =
      Hashtbl.fold
        (fun n (h : histogram) acc ->
          (n, { count = h.count; sum = h.sum; min_v = h.min_s; max_v = h.max_s }) :: acc)
        histograms_tbl []
    in
    Mutex.unlock lock;
    {
      counters = List.sort compare cs;
      gauges = List.sort compare gs;
      histograms = List.sort compare hs;
    }

  let counter_value snap name =
    match List.assoc_opt name snap.counters with Some v -> v | None -> 0

  let reset () =
    Mutex.lock lock;
    Hashtbl.iter (fun _ c -> Atomic.set c 0) counters_tbl;
    Hashtbl.iter (fun _ g -> g := 0.) gauges_tbl;
    Hashtbl.iter
      (fun _ (h : histogram) ->
        h.count <- 0;
        h.sum <- 0.;
        h.min_s <- infinity;
        h.max_s <- neg_infinity)
      histograms_tbl;
    Mutex.unlock lock

  let pp ppf snap =
    let first = ref true in
    let line fmt =
      Format.kasprintf
        (fun s ->
          if !first then first := false else Format.pp_print_cut ppf ();
          Format.pp_print_string ppf s)
        fmt
    in
    List.iter (fun (n, v) -> if v <> 0 then line "%s = %d" n v) snap.counters;
    List.iter (fun (n, v) -> if v <> 0. then line "%s = %g" n v) snap.gauges;
    List.iter
      (fun (n, h) ->
        if h.count > 0 then
          line "%s: n=%d total=%.3f mean=%.3f min=%.3f max=%.3f" n h.count h.sum
            (h.sum /. float_of_int h.count)
            h.min_v h.max_v)
      snap.histograms
end

module Warn = struct
  let lock = Mutex.create ()
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 8

  let once key message =
    Mutex.lock lock;
    let fresh = not (Hashtbl.mem seen key) in
    if fresh then Hashtbl.add seen key ();
    Mutex.unlock lock;
    if fresh then Printf.eprintf "warning: %s\n%!" message;
    fresh

  let reset () =
    Mutex.lock lock;
    Hashtbl.reset seen;
    Mutex.unlock lock
end

module Export = struct
  let args_json args = Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) args)

  let chrome_trace spans =
    let event (sp : Trace.span) =
      Json.Obj
        [
          ("name", Json.Str sp.Trace.name);
          ("cat", Json.Str "shangfortes");
          ("ph", Json.Str "X");
          ("ts", Json.Float (1e6 *. sp.Trace.start_s));
          ("dur", Json.Float (1e6 *. sp.Trace.dur_s));
          ("pid", Json.Int 1);
          ("tid", Json.Int sp.Trace.domain);
          ("args", args_json sp.Trace.args);
        ]
    in
    Json.Obj
      [
        ("traceEvents", Json.Arr (List.map event spans));
        ("displayTimeUnit", Json.Str "ms");
      ]

  let span_tree spans =
    let ids = Hashtbl.create 64 in
    List.iter (fun (sp : Trace.span) -> Hashtbl.replace ids sp.Trace.id sp) spans;
    let children : (int, Trace.span list ref) Hashtbl.t = Hashtbl.create 64 in
    let roots = ref [] in
    (* [spans] is in completion order; within one parent, children
       complete in start order for well-nested spans, so accumulating
       with [::] and reversing preserves chronology. *)
    List.iter
      (fun (sp : Trace.span) ->
        match sp.Trace.parent with
        | Some p when Hashtbl.mem ids p -> (
          match Hashtbl.find_opt children p with
          | Some l -> l := sp :: !l
          | None -> Hashtbl.add children p (ref [ sp ]))
        | Some _ | None -> roots := sp :: !roots)
      spans;
    let rec render (sp : Trace.span) =
      let kids =
        match Hashtbl.find_opt children sp.Trace.id with
        | Some l -> List.rev_map render !l
        | None -> []
      in
      Json.Obj
        [
          ("name", Json.Str sp.Trace.name);
          ("domain", Json.Int sp.Trace.domain);
          ("start_ms", Json.Float (1e3 *. sp.Trace.start_s));
          ("dur_ms", Json.Float (1e3 *. sp.Trace.dur_s));
          ("args", args_json sp.Trace.args);
          ("children", Json.Arr kids);
        ]
    in
    Json.Arr (List.rev_map render !roots)

  let metrics (snap : Metrics.snapshot) =
    Json.Obj
      [
        ( "counters",
          Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) snap.Metrics.counters) );
        ( "gauges",
          Json.Obj (List.map (fun (n, v) -> (n, Json.Float v)) snap.Metrics.gauges) );
        ( "histograms",
          Json.Obj
            (List.map
               (fun (n, (h : Metrics.hist)) ->
                 ( n,
                   Json.Obj
                     [
                       ("count", Json.Int h.Metrics.count);
                       ("sum", Json.Float h.Metrics.sum);
                       ( "min",
                         if h.Metrics.count = 0 then Json.Null
                         else Json.Float h.Metrics.min_v );
                       ( "max",
                         if h.Metrics.count = 0 then Json.Null
                         else Json.Float h.Metrics.max_v );
                     ] ))
               snap.Metrics.histograms) );
      ]

  let phases agg =
    Json.Arr
      (List.map
         (fun (name, count, total_s) ->
           Json.Obj
             [
               ("name", Json.Str name);
               ("count", Json.Int count);
               ("total_ms", Json.Float (1e3 *. total_s));
             ])
         agg)

  let write_file path json =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc (Json.to_string json);
        output_char oc '\n')
end
