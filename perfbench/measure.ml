(* Clocks, order statistics and process accounting shared by every
   workload.  Everything here observes the program from outside: the
   monotonic clock, /proc/<pid>, and the GC's own allocation counter. *)

let now_ns () = Monotonic_clock.now ()

let elapsed_s t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

let time_s f =
  let t0 = now_ns () in
  let r = f () in
  (r, elapsed_s t0)

(* Nearest-rank percentile of an ascending array. *)
let percentile sorted p =
  match Array.length sorted with
  | 0 -> nan
  | n -> sorted.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let sorted_copy a =
  let s = Array.copy a in
  Array.sort compare s;
  s

let median a = percentile (sorted_copy a) 0.5

let mean a =
  if Array.length a = 0 then 0. else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

(* The tail the benchmark reports: the highest whole percentile that
   still leaves at least ten samples beyond it, capped at p99. *)
let tail_percent n =
  let p = ref 99 in
  while !p > 50 && float_of_int n *. (1. -. (float_of_int !p /. 100.)) < 10. do
    decr p
  done;
  !p

(* ---------------------------- /proc ---------------------------------- *)

(* Reads to EOF: /proc files report a length of 0. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let buf = Buffer.create 65536 and chunk = Bytes.create 65536 in
  let rec go () =
    match input ic chunk 0 65536 with
    | 0 -> Buffer.contents buf
    | k ->
      Buffer.add_subbytes buf chunk 0 k;
      go ()
  in
  go ()

let clk_tck = 100.

(* user+sys CPU seconds of a process, all its threads included. *)
let cpu_s pid =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  (* Fields after the parenthesised command name, which may hold spaces. *)
  let rest = String.sub stat (String.rindex stat ')' + 2) (String.length stat - String.rindex stat ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (* utime and stime are fields 14 and 15 of stat, i.e. 12 and 13 after the name. *)
  (float_of_string f.(11) +. float_of_string f.(12)) /. clk_tck

let status_kb pid key =
  let lines = String.split_on_char '\n' (read_file (Printf.sprintf "/proc/%d/status" pid)) in
  let prefix = key ^ ":" in
  match List.find_opt (fun l -> String.starts_with ~prefix l) lines with
  | None -> 0
  | Some l -> (
    let n = String.length prefix in
    let v = String.trim (String.sub l n (String.length l - n)) in
    match String.split_on_char ' ' v with x :: _ -> int_of_string x | [] -> 0)

let peak_rss_mb pid = float_of_int (status_kb pid "VmHWM") /. 1024.

(* ---------------------------- host ----------------------------------- *)

let nproc () =
  let cpus = read_file "/proc/stat" in
  List.length
    (List.filter
       (fun l ->
         String.length l > 3
         && String.sub l 0 3 = "cpu"
         && l.[3] >= '0' && l.[3] <= '9')
       (String.split_on_char '\n' cpus))

(* Ticks the hypervisor has taken from this VM's CPUs ("steal" in the
   first line of /proc/stat, 0 where it is not accounted). *)
let steal_ticks () =
  match String.split_on_char ' ' (List.hd (String.split_on_char '\n' (read_file "/proc/stat"))) with
  | "cpu" :: rest -> (
    match List.filter (( <> ) "") rest with
    | _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ -> float_of_string steal
    | _ -> 0.)
  | _ -> 0.

(* The share of the VM's CPU time the hypervisor stole: [ticks] of steal
   over [wall_s] seconds on every CPU. *)
let steal_share ~ticks ~wall_s = ticks /. clk_tck /. (wall_s *. float_of_int (nproc ()))

let os () =
  let field path = try String.trim (read_file path) with Sys_error _ -> "?" in
  field "/proc/sys/kernel/ostype" ^ " " ^ field "/proc/sys/kernel/osrelease"

let host_stamp () =
  Json.Obj
    [
      ("nproc", Json.Int (nproc ()));
      ("recommended_domain_count", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("os", Json.Str (os ()));
    ]

(* A fixed pure-CPU loop (an LCG with a data-dependent branch, no
   allocation): its time says how fast the shared host ran, nothing
   about the program. *)
let reference_loop_ms () =
  let t0 = now_ns () in
  let x = ref 1 and acc = ref 0 in
  for _ = 1 to 20_000_000 do
    x := (!x * 1103515245 + 12345) land 0x3fffffff;
    if !x land 1 = 0 then acc := !acc + (!x lsr 7) else acc := !acc lxor !x
  done;
  let ms = elapsed_s t0 *. 1000. in
  if !acc = -1 then print_string "";
  ms

(* Minor-heap words allocated by [f] on this domain: an exact count for
   deterministic single-domain work. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. w0)
