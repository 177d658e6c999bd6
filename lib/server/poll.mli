(** Readiness notification for the event loop ({!Loop}) that the
    daemon and the cluster router share: [poll(2)] through a small C
    stub, compiled on every build.  A connection readable at EOF and a
    peer reset both surface as readable, so the caller discovers the
    condition from the subsequent [read]. *)

type interest = { want_read : bool; want_write : bool }

type event = { ready_read : bool; ready_write : bool; ready_error : bool }
(** [ready_error] covers POLLERR / POLLNVAL; a hangup with or without
    data surfaces as [ready_read]. *)

val wait :
  (Unix.file_descr * interest) list -> timeout_ms:int -> (Unix.file_descr * event) list
(** Block until at least one descriptor is ready or the timeout
    elapses ([timeout_ms < 0] waits forever).  Returns one event per
    {e ready} descriptor, in input order; an interrupted wait (EINTR)
    returns the empty list, so callers simply re-evaluate state and
    wait again. *)
