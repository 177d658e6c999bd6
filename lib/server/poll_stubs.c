/* poll(2) binding for the shared readiness loop (Loop).  The OCaml runtime
 * lock is released around the syscall so worker threads keep running
 * while the loop sleeps.  File descriptors arrive as a Unix.file_descr
 * array (immediate ints on Unix); interest and readiness are encoded
 * as bitmasks: 1 = read, 2 = write, 4 = error/hangup/invalid. */

#include <poll.h>
#include <stdlib.h>
#include <errno.h>

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <caml/threads.h>

CAMLprim value sf_poll_fds(value v_fds, value v_events, value v_timeout_ms)
{
  CAMLparam3(v_fds, v_events, v_timeout_ms);
  CAMLlocal1(v_res);
  mlsize_t n = Wosize_val(v_fds);
  int timeout = Int_val(v_timeout_ms);
  struct pollfd *pfds = malloc(sizeof(struct pollfd) * (n > 0 ? n : 1));
  if (pfds == NULL) caml_failwith("sf_poll_fds: out of memory");
  for (mlsize_t i = 0; i < n; i++) {
    int interest = Int_val(Field(v_events, i));
    pfds[i].fd = Int_val(Field(v_fds, i));
    pfds[i].events = (short)(((interest & 1) ? POLLIN : 0) |
                             ((interest & 2) ? POLLOUT : 0));
    pfds[i].revents = 0;
  }
  caml_release_runtime_system();
  int rc = poll(pfds, (nfds_t)n, timeout);
  int saved_errno = errno;
  caml_acquire_runtime_system();
  if (rc < 0 && saved_errno != EINTR) {
    free(pfds);
    caml_failwith("sf_poll_fds: poll failed");
  }
  v_res = caml_alloc(n, 0);
  for (mlsize_t i = 0; i < n; i++) {
    int r = 0;
    if (rc > 0) {
      if (pfds[i].revents & (POLLIN | POLLHUP)) r |= 1;
      if (pfds[i].revents & POLLOUT) r |= 2;
      if (pfds[i].revents & (POLLERR | POLLNVAL)) r |= 4;
    }
    Store_field(v_res, i, Val_int(r));
  }
  free(pfds);
  CAMLreturn(v_res);
}
