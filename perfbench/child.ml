(* A [rentcost serve] child on two pipes, at its default flags. *)

type t = {
  pid : int;
  oc : out_channel;  (* the child's stdin *)
  ic : in_channel;  (* the child's stdout *)
}

let spawn exe =
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  let stdout_r, stdout_w = Unix.pipe ~cloexec:true () in
  (* The shutdown stats dump goes to stderr; nothing here reads it. *)
  let sink = Unix.openfile Filename.null [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Unix.create_process exe [| exe; "serve" |] stdin_r stdout_w sink
  in
  List.iter Unix.close [ stdin_r; stdout_w; sink ];
  { pid; oc = Unix.out_channel_of_descr stdin_w;
    ic = Unix.in_channel_of_descr stdout_r }

(* Sends one request line and reads the one reply line. *)
let call t line =
  output_string t.oc line;
  output_char t.oc '\n';
  flush t.oc;
  input_line t.ic

(* Raw access to the pipe ends, for the timed event loop. Only valid
   while the channels' buffers are empty. *)
let write_all t s =
  let fd = Unix.descr_of_out_channel t.oc in
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

(* [read t buf ~spin] returns the next bytes the child wrote. With
   [~spin] it polls a non-blocking descriptor instead of sleeping, so
   the reader is running when a reply lands: on a VM a blocked reader
   waits tens to hundreds of microseconds to be woken, and the daemon
   runs out of queued requests meanwhile. *)
let read t buf ~spin =
  let fd = Unix.descr_of_in_channel t.ic in
  let rec go () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> raise End_of_file
    | k -> k
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      Domain.cpu_relax ();
      go ()
  in
  if spin then Unix.set_nonblock fd;
  Fun.protect ~finally:(fun () -> if spin then Unix.clear_nonblock fd) go

let proc_file t name = Printf.sprintf "/proc/%d/%s" t.pid name

(* User + system CPU seconds of the child so far, from
   /proc/PID/stat (fields 14 and 15, in clock ticks of 1/100 s). The
   command name in field 2 may hold spaces, so fields are counted from
   its closing parenthesis. *)
let cpu_seconds t =
  let ic = open_in (proc_file t "stat") in
  let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
  let rest =
    let i = String.rindex line ')' in
    String.sub line (i + 2) (String.length line - i - 2)
  in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  (* [rest] starts at field 3 (state), so field k is [fields.(k - 3)]. *)
  float_of_string fields.(14 - 3) +. float_of_string fields.(15 - 3)
  |> fun ticks -> ticks /. 100.

(* Peak resident set (VmHWM) of a process, in MiB. *)
let peak_rss_of_status path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        match input_line ic with
        | exception End_of_file -> failwith ("no VmHWM in " ^ path)
        | line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> find ()
      in
      find ())

let peak_rss_mb t = peak_rss_of_status (proc_file t "status")
let self_peak_rss_mb () = peak_rss_of_status "/proc/self/status"

(* Ask the child to stop, then reap it. Returns the [shutdown] reply. *)
let stop t =
  let bye = try call t {|{"op":"shutdown"}|} with End_of_file | Sys_error _ -> "" in
  close_out_noerr t.oc;
  close_in_noerr t.ic;
  let _, status = Unix.waitpid [] t.pid in
  (bye, status)

(* Best-effort teardown on an error path: the child must never outlive
   the benchmark. *)
let kill t =
  (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
  close_out_noerr t.oc;
  close_in_noerr t.ic;
  try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ()
