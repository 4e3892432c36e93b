(* Child processes: [toss serve] / [toss router] on fresh database
   directories, their peak memory, and their orderly shutdown. *)

type proc = { pid : int; sock : string; db : string option }

(* Every child still running, so that any exit of the benchmark stops
   them all. *)
let running = ref []

let forget pid = running := List.filter (( <> ) pid) !running

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !running;
  running := []

let spawn ~toss ~log args =
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process toss (Array.of_list (toss :: args)) Unix.stdin fd fd
  in
  Unix.close fd;
  running := pid :: !running;
  pid

let serve ~toss ~dir ~name ~domains =
  let sock = Filename.concat dir (name ^ ".sock") in
  let db = Filename.concat dir (name ^ ".db") in
  let pid =
    spawn ~toss ~log:(Filename.concat dir (name ^ ".log"))
      [ "serve"; "--socket"; sock; "--db"; db; "--domains"; string_of_int domains;
        (* a host stall of a few tens of milliseconds must not turn into
           shed requests at the offered rates *)
        "--max-queue"; "4096" ]
  in
  { pid; sock; db = Some db }

let router ~toss ~dir ~shards =
  let sock = Filename.concat dir "router.sock" in
  let pid =
    spawn ~toss ~log:(Filename.concat dir "router.log")
      ([ "router"; "--socket"; sock; "--connect-retry-ms"; "5000" ]
      @ List.concat_map (fun p -> [ "--shard"; p.sock ]) shards)
  in
  { pid; sock; db = None }

(* VmHWM of a live process, in MiB. *)
let peak_rss_mb p =
  let ic = open_in (Printf.sprintf "/proc/%d/status" p.pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> 0.
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
                  float_of_int kb /. 1024.)
            else go ()
      in
      go ())

let alive p =
  match Unix.waitpid [ Unix.WNOHANG ] p.pid with
  | 0, _ -> true
  | _ ->
      forget p.pid;
      false
  | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
      forget p.pid;
      false

(* Waits up to [timeout] seconds for the process to exit, then kills it;
   always reaps it. *)
let reap ?(timeout = 5.) p =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec wait () =
    if alive p then
      if Unix.gettimeofday () < deadline then (
        Unix.sleepf 0.01;
        wait ())
      else begin
        (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] p.pid) with Unix.Unix_error _ -> ());
        forget p.pid
      end
  in
  wait ()

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()
