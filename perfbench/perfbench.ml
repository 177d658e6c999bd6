(* The benchmark harness: runs one workload and prints one JSON document
   as its last line of standard output.  perfbench/run.py builds this
   executable and turns that document into the benchmark's result.

   perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
                 --program PATH/shangfortes.exe [--plant-mismatch] [--scale F]

   It works in the current directory, which should be empty: the
   daemon's socket, store journal and reports are created there. *)

let usage () =
  prerr_endline
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 --program EXE \
     [--plant-mismatch] [--scale F]";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let program = ref "" and plant = ref false and scale = ref 1. in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := int_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--program" :: v :: rest -> program := v; parse rest
    | "--scale" :: v :: rest -> scale := float_of_string v; parse rest
    | "--plant-mismatch" :: rest -> plant := true; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let run =
    match List.assoc_opt !workload Workloads.all with Some f -> f | None -> usage ()
  in
  if !program = "" || !seconds < 1 then usage ();
  (* A dead peer must surface as a failed op, not kill the harness. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  at_exit Served.kill_all;
  let p =
    {
      Workloads.seed = !seed;
      seconds = !seconds;
      traced = !trace = 1;
      program = !program;
      plant_mismatch = !plant;
      scale = !scale;
    }
  in
  let ref_before = Measure.reference_loop_ms () in
  let o = run p in
  let ref_after = Measure.reference_loop_ms () in
  let metric (x : Workloads.metric) =
    (x.Workloads.name, Json.Obj [ ("value", Json.Float x.Workloads.value); ("unit", Json.Str x.Workloads.unit_) ])
  in
  Json.print
    (Json.Obj
       [
         ("workload", Json.Str !workload);
         ("seed", Json.Int !seed);
         ("trace", Json.Int !trace);
         ("host", Measure.host_stamp ());
         ("reference_loop_ms", Json.Obj [ ("before", Json.Float ref_before); ("after", Json.Float ref_after) ]);
         ("attempted", Json.Int o.Workloads.attempted);
         ("failed", Json.Int o.Workloads.failed);
         ("setup_failed", Json.Int o.Workloads.setup_failed);
         ("metrics", Json.Obj (List.map metric o.Workloads.metrics));
         ("harness_peak_rss_mb", Json.Float (Measure.peak_rss_mb (Unix.getpid ())));
         ("diag", Json.Obj o.Workloads.diag);
       ])
