type interest = { want_read : bool; want_write : bool }
type event = { ready_read : bool; ready_write : bool; ready_error : bool }

external sf_poll_fds : Unix.file_descr array -> int array -> int -> int array
  = "sf_poll_fds"

let wait fds ~timeout_ms =
  let arr = Array.of_list fds in
  let n = Array.length arr in
  let raw_fds = Array.map fst arr in
  let interests =
    Array.map
      (fun (_, i) -> (if i.want_read then 1 else 0) lor if i.want_write then 2 else 0)
      arr
  in
  let res = sf_poll_fds raw_fds interests timeout_ms in
  let events = ref [] in
  for i = n - 1 downto 0 do
    let r = res.(i) in
    if r <> 0 then
      events :=
        ( raw_fds.(i),
          {
            ready_read = r land 1 <> 0;
            ready_write = r land 2 <> 0;
            ready_error = r land 4 <> 0;
          } )
        :: !events
  done;
  !events
