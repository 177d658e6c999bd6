(* -------------------------- output buffers -------------------------- *)

(* A growable byte queue per connection: replies append at the tail,
   the nonblocking flush consumes from the head.  Reused for the
   connection's whole life — the warm path never allocates a fresh
   buffer per reply. *)
module Outbuf = struct
  type t = { mutable buf : Bytes.t; mutable start : int; mutable len : int }

  let create n = { buf = Bytes.create n; start = 0; len = 0 }
  let length b = b.len

  let add b s =
    let n = String.length s in
    let cap = Bytes.length b.buf in
    if b.start + b.len + n > cap then begin
      if b.start > 0 then Bytes.blit b.buf b.start b.buf 0 b.len;
      b.start <- 0;
      if b.len + n > cap then begin
        let rec grow c = if c >= b.len + n then c else grow (2 * c) in
        let buf' = Bytes.create (grow (max cap 64)) in
        Bytes.blit b.buf 0 buf' 0 b.len;
        b.buf <- buf'
      end
    end;
    Bytes.blit_string s 0 b.buf (b.start + b.len) n;
    b.len <- b.len + n

  let consume b n =
    b.start <- b.start + n;
    b.len <- b.len - n;
    if b.len = 0 then b.start <- 0
end

type conn = {
  fd : Unix.file_descr;
  dec : Wire.decoder;
  out : Outbuf.t;
  olock : Mutex.t;
  mutable version : Wire.version;
  mutable dead : bool;
  mutable closing : bool;
  mutable dirty : bool;
  on_read : conn -> Bytes.t -> int -> unit;
  on_close : conn -> unit;
}

type t = {
  pipe_r : Unix.file_descr;
  pipe_w : Unix.file_descr;
  conns : (Unix.file_descr, conn) Hashtbl.t;
  mutable listener : (Unix.file_descr * (Unix.file_descr -> unit)) option;
  mutable to_flush : conn list;  (* the dirty connections, newest first *)
  mutable timer_at : float;
  mutable timer : unit -> unit;
  chunk : Bytes.t;
  pipe_buf : Bytes.t;
}

let locked lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let create () =
  (* A peer hanging up mid-reply must surface as EPIPE on the write,
     not kill the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let pipe_r, pipe_w = Unix.pipe () in
  Unix.set_nonblock pipe_r;
  (* A full pipe already holds a pending wake-up: the writer must never
     block on it (workers, the monitor, signal handlers). *)
  Unix.set_nonblock pipe_w;
  {
    pipe_r;
    pipe_w;
    conns = Hashtbl.create 64;
    listener = None;
    to_flush = [];
    timer_at = infinity;
    timer = ignore;
    chunk = Bytes.create 65536;
    pipe_buf = Bytes.create 256;
  }

(* ------------------------------- wakeup ------------------------------ *)

(* The self-pipe carries two byte values: ['d'] asks for a drain (the
   async-signal-safe {!wake_drain}), ['w'] merely interrupts the poll
   so the loop re-reads shared state. *)
let wake_byte t c = try ignore (Unix.write_substring t.pipe_w c 0 1) with _ -> ()
let wake t = wake_byte t "w"
let wake_drain t = wake_byte t "d"

(* ---------------------------- connections ---------------------------- *)

let add t fd ~on_read ?(on_close = ignore) () =
  Unix.set_nonblock fd;
  let c =
    {
      fd;
      dec = Wire.decoder Wire.V1;
      out = Outbuf.create 4096;
      olock = Mutex.create ();
      version = Wire.V1;
      dead = false;
      closing = false;
      dirty = false;
      on_read;
      on_close;
    }
  in
  Hashtbl.replace t.conns fd c;
  c

(* Flush as much pending output as the socket accepts right now; the
   remainder stays queued and the loop polls for writability.  A dead
   peer is not an error — the bytes are simply dropped (the read side
   will observe the hangup and tear the connection down). *)
let flush_locked c =
  let rec go () =
    if c.out.Outbuf.len > 0 then
      match Unix.write c.fd c.out.Outbuf.buf c.out.Outbuf.start c.out.Outbuf.len with
      | 0 -> ()
      | n ->
        Outbuf.consume c.out n;
        go ()
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _) ->
        Outbuf.consume c.out c.out.Outbuf.len
  in
  go ()

(* Whether output is still queued after the flush. *)
let flush c =
  locked c.olock (fun () ->
      if c.dead then false
      else begin
        flush_locked c;
        Outbuf.length c.out > 0
      end)

let pending c =
  Mutex.lock c.olock;
  let n = Outbuf.length c.out in
  Mutex.unlock c.olock;
  n > 0

let send t c ?(defer = false) ?switch make =
  Mutex.lock c.olock;
  if c.dead then Mutex.unlock c.olock
  else begin
    let pending =
      Fun.protect
        ~finally:(fun () -> Mutex.unlock c.olock)
        (fun () ->
          Outbuf.add c.out (make c.version);
          Option.iter (fun v -> c.version <- v) switch;
          if not defer then flush_locked c;
          (not defer) && Outbuf.length c.out > 0)
    in
    if defer then begin
      if not c.dirty then begin
        c.dirty <- true;
        t.to_flush <- c :: t.to_flush
      end
    end
    else if pending then wake t
  end

let close t c =
  let was_live =
    locked c.olock (fun () ->
        let live = not c.dead in
        if live then begin
          c.dead <- true;
          try Unix.close c.fd with Unix.Unix_error _ -> ()
        end;
        live)
  in
  if was_live then begin
    Hashtbl.remove t.conns c.fd;
    c.on_close c
  end

let conns t = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns []
let close_all t = List.iter (close t) (conns t)
let pending_output t = List.exists pending (conns t)
let is_empty t = Hashtbl.length t.conns = 0

(* ----------------------------- listening ----------------------------- *)

type listen = Unix_sock of string | Tcp of int

(* Bind a Unix socket, coping with a stale socket file left by a
   SIGKILLed predecessor: a path that IS a socket gets probed with a
   connect — refused/unreachable means dead owner, so unlink and take
   over; answered means another server is live, so fail loudly.  A
   path that exists but is NOT a socket is never unlinked (the store
   journal, say, must not be clobbered by a mistyped --socket). *)
let bind_unix path =
  (match Unix.stat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> (
    let probe = Unix.socket PF_UNIX SOCK_STREAM 0 in
    match Unix.connect probe (ADDR_UNIX path) with
    | () ->
      (try Unix.close probe with Unix.Unix_error _ -> ());
      failwith (Printf.sprintf "a server is already listening on %s" path)
    | exception Unix.Unix_error ((ECONNREFUSED | ENOENT), _, _) ->
      (try Unix.close probe with Unix.Unix_error _ -> ());
      (try Unix.unlink path with Unix.Unix_error _ -> ())
    | exception e ->
      (try Unix.close probe with Unix.Unix_error _ -> ());
      raise e)
  | { Unix.st_kind = _; _ } ->
    failwith (Printf.sprintf "%s exists and is not a socket; refusing to unlink" path)
  | exception Unix.Unix_error (ENOENT, _, _) -> ());
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Unix.bind fd (ADDR_UNIX path);
  Unix.listen fd 64;
  fd

let bind = function
  | Unix_sock path -> bind_unix path
  | Tcp port ->
    let fd = Unix.socket PF_INET SOCK_STREAM 0 in
    Unix.setsockopt fd SO_REUSEADDR true;
    Unix.bind fd (ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.listen fd 64;
    fd

let port fd = match Unix.getsockname fd with ADDR_INET (_, p) -> Some p | ADDR_UNIX _ -> None

let listen t fd ~on_accept =
  Unix.set_nonblock fd;
  t.listener <- Some (fd, on_accept)

let stop_listening t =
  Option.iter
    (fun (fd, _) -> try Unix.close fd with Unix.Unix_error _ -> ())
    t.listener;
  t.listener <- None

(* ------------------------------- timer ------------------------------- *)

let set_timer t ~at f =
  t.timer_at <- at;
  t.timer <- f

let timer_armed t = t.timer_at < infinity

(* --------------------------------- run ------------------------------- *)

let accept_burst lfd on_accept =
  let rec go budget =
    if budget > 0 then
      match Unix.accept lfd with
      | fd, _ ->
        on_accept fd;
        go (budget - 1)
      | exception Unix.Unix_error _ -> ()
  in
  go 128

let service_pipe t on_drain =
  match Unix.read t.pipe_r t.pipe_buf 0 (Bytes.length t.pipe_buf) with
  | 0 -> ()
  | n -> if Bytes.contains (Bytes.sub t.pipe_buf 0 n) 'd' then on_drain ()
  | exception Unix.Unix_error _ -> ()

let service_read t c =
  match Unix.read c.fd t.chunk 0 (Bytes.length t.chunk) with
  | 0 -> close t c
  | n -> c.on_read c t.chunk n
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error ((ECONNRESET | EPIPE | EBADF), _, _) -> close t c

let service t on_drain (fd, (ev : Poll.event)) =
  if fd = t.pipe_r then (if ev.Poll.ready_read then service_pipe t on_drain)
  else
    match t.listener with
    | Some (lfd, on_accept) when fd = lfd -> if ev.Poll.ready_read then accept_burst lfd on_accept
    | _ -> (
      match Hashtbl.find_opt t.conns fd with
      | None -> ()
      | Some c ->
        if ev.Poll.ready_write && (not (flush c)) && c.closing then close t c;
        if (not c.dead) && (ev.Poll.ready_read || ev.Poll.ready_error) then
          if c.closing then (if ev.Poll.ready_error then close t c)
          else service_read t c)

(* One flush per dirty connection for the whole event batch: a
   pipelined burst of replies — or of forwarded requests — costs one
   [write] instead of one per message. *)
let flush_dirty t =
  let cs = List.rev t.to_flush in
  t.to_flush <- [];
  List.iter
    (fun c ->
      c.dirty <- false;
      if (not c.dead) && (not (flush c)) && c.closing then close t c)
    cs

let timeout_ms t =
  if t.timer_at = infinity then -1
  else max 0 (int_of_float (Float.ceil ((t.timer_at -. Obs.Clock.now_s ()) *. 1000.)))

let fire_timer t =
  if t.timer_at < infinity && t.timer_at <= Obs.Clock.now_s () then begin
    let f = t.timer in
    t.timer_at <- infinity;
    t.timer <- ignore;
    f ()
  end

let run t ~on_drain ~step =
  let rec go () =
    (* Connections marked closing (a corrupt stream, a drain) go once
       their output has drained. *)
    List.iter (fun c -> if c.closing && not (pending c) then close t c) (conns t);
    if step () then begin
      let interests =
        (match t.listener with
        | Some (fd, _) -> [ (fd, { Poll.want_read = true; want_write = false }) ]
        | None -> [])
        @ [ (t.pipe_r, { Poll.want_read = true; want_write = false }) ]
        @ Hashtbl.fold
            (fun _ c acc ->
              let want_write = pending c and want_read = not c.closing in
              if want_read || want_write then (c.fd, { Poll.want_read; want_write }) :: acc
              else acc)
            t.conns []
      in
      List.iter (service t on_drain) (Poll.wait interests ~timeout_ms:(timeout_ms t));
      fire_timer t;
      flush_dirty t;
      go ()
    end
  in
  go ()

let dispose t =
  (try Unix.close t.pipe_r with Unix.Unix_error _ -> ());
  try Unix.close t.pipe_w with Unix.Unix_error _ -> ()
