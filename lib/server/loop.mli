(** The readiness loop shared by the daemon ({!Daemon}) and the
    cluster router: one thread owns a set of nonblocking connections,
    waits on them with {!Poll}, and runs every callback itself.

    Each connection has a {!Wire} decoder and a reusable output
    buffer.  A readable connection is read in 64 KiB chunks that go
    to its [on_read] callback as they are.  Replies queued with
    [~defer:true] are flushed once per event batch, so a pipelined
    burst costs one [write] per connection rather than one per
    message.  A self-pipe lets other threads (and signal handlers)
    interrupt the wait, and one timer bounds it.

    Threading: everything here runs on the loop thread, except
    {!send} without [~defer], {!wake} and {!wake_drain}, which any
    thread may call.  A connection's output buffer, [version] and
    [dead] flag are guarded by its [olock] for that reason. *)

(** A growable byte queue, consumed from the head. *)
module Outbuf : sig
  type t
end

type conn = {
  fd : Unix.file_descr;
  dec : Wire.decoder;  (** Loop thread only. *)
  out : Outbuf.t;
  olock : Mutex.t;
  mutable version : Wire.version;
      (** The dialect replies are encoded in; {!send} passes it to
          the encoder under [olock]. *)
  mutable dead : bool;
  mutable closing : bool;
      (** Loop thread only: stop reading, close once the output is
          flushed. *)
  mutable dirty : bool;  (** Loop thread only: queued for the batch flush. *)
  on_read : conn -> Bytes.t -> int -> unit;
      (** [on_read c chunk n]: [n > 0] fresh bytes at the start of
          [chunk], which the loop reuses after the call. *)
  on_close : conn -> unit;
}

type t

val create : unit -> t
(** A loop with its self-pipe; also ignores SIGPIPE for the process,
    so a peer that hangs up surfaces as EPIPE on the write. *)

val add :
  t ->
  Unix.file_descr ->
  on_read:(conn -> Bytes.t -> int -> unit) ->
  ?on_close:(conn -> unit) ->
  unit ->
  conn
(** Make [fd] nonblocking and watch it.  Every connection starts in
    the v1 dialect, both ways. *)

val send :
  t -> conn -> ?defer:bool -> ?switch:Wire.version -> (Wire.version -> string) -> unit
(** [send t c make] appends [make c.version] to [c]'s output, under
    [olock]; a no-op on a dead connection.  With [defer] (loop thread
    only) the bytes wait for the batch flush; otherwise they are
    flushed at once and the loop is woken if the socket would block.
    [switch] changes [c.version] right after these bytes, in the same
    critical section, so every later message uses the new dialect.
    The decoder is not switched. *)

val pending : conn -> bool
(** Output is queued. *)

val close : t -> conn -> unit
(** Close the descriptor, drop the queued output, stop watching, then
    call [on_close].  Idempotent. *)

val conns : t -> conn list
val close_all : t -> unit
val pending_output : t -> bool
(** Some connection has output queued. *)

val is_empty : t -> bool

type listen = Unix_sock of string | Tcp of int

val bind : listen -> Unix.file_descr
(** A listening socket.  A Unix path that holds a {e dead} socket (its
    server was SIGKILLed) is probed with a connect, unlinked on
    refusal and bound again; a live listener fails loudly, and a path
    that is not a socket is never unlinked.  TCP binds 127.0.0.1.
    @raise Failure / [Unix.Unix_error] when the socket is unusable. *)

val port : Unix.file_descr -> int option
(** The bound TCP port of a socket ([None] for Unix sockets). *)

val listen : t -> Unix.file_descr -> on_accept:(Unix.file_descr -> unit) -> unit
(** Watch a listening socket; each readiness accepts up to 128
    connections and hands each descriptor to [on_accept]. *)

val stop_listening : t -> unit
(** Close the listening socket. *)

val set_timer : t -> at:float -> (unit -> unit) -> unit
(** Replace the loop's one timer: the wait ends by [at] ({!Obs.Clock}
    seconds) and the callback runs once after it. *)

val timer_armed : t -> bool

val wake : t -> unit
(** Interrupt the wait, so the loop runs its [step] again. *)

val wake_drain : t -> unit
(** As {!wake}, and the loop calls its [on_drain].  One self-pipe
    write, nothing else: safe in a signal handler. *)

val run : t -> on_drain:(unit -> unit) -> step:(unit -> bool) -> unit
(** Loop until [step] returns [false].  Each round closes the closing
    connections whose output has drained, calls [step], waits, then
    services the ready descriptors in this order: the listener, the
    self-pipe, then the connections (write before read).  Last come
    the timer and the batch flush. *)

val dispose : t -> unit
(** Close the self-pipe. *)
