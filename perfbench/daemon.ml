(* The daemon under test: an `fcv serve` process of its own, started with
   the fixed settings every workload uses. *)

type t = { pid : int; sock : string; spawned : float; log : string; log_start : int }

(* Daemons not yet reaped: killed when the client exits, however it
   exits, so no run leaves a process behind. *)
let live : int list ref = ref []

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let () =
  at_exit kill_all;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigterm; Sys.sigint; Sys.sighup ]

(* With [telemetry], the daemon records its telemetry and writes it to
   that file when it exits. *)
let spawn ?telemetry ~fcv ~data ~constraints ~state ~shards ~log () =
  let sock = Filename.concat state "fcv.sock" in
  let args =
    Array.append
      [|
        fcv; "serve"; "-d"; data; "--sock"; sock; "--state"; state; "-c"; constraints;
        "-j"; "1"; "--shards"; string_of_int shards; "--group-commit"; "8"; "--fsync-every"; "1";
      |]
      (match telemetry with Some file -> [| "--telemetry"; file |] | None -> [||])
  in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let log_start = (Unix.fstat out).Unix.st_size in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let spawned = Unix.gettimeofday () in
  let pid = Unix.create_process fcv args devnull out out in
  live := pid :: !live;
  Unix.close out;
  Unix.close devnull;
  { pid; sock; spawned; log; log_start }

(* Peak resident set of the daemon process ([VmHWM]), in MiB. *)
let peak_rss_mb t =
  let ic = open_in (Printf.sprintf "/proc/%d/status" t.pid) in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Until the daemon's log says it is listening, which it prints once
   the startup constraints are registered: a request sent earlier would
   wait in the socket's backlog through the registration. *)
let await_listening t =
  let deadline = Unix.gettimeofday () +. 120. in
  let rec poll () =
    let ic = open_in_bin t.log in
    let text =
      Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
          seek_in ic t.log_start;
          really_input_string ic (in_channel_length ic - t.log_start))
    in
    let rec has i = i + 9 <= String.length text && (String.sub text i 9 = "listening" || has (i + 1)) in
    if not (has 0) then begin
      if Unix.gettimeofday () > deadline then failwith "perfbench: the daemon never started listening";
      (match Unix.waitpid [ Unix.WNOHANG ] t.pid with
      | 0, _ -> ()
      | _ -> failwith "perfbench: the daemon exited before listening");
      Unix.sleepf 0.005;
      poll ()
    end
  in
  poll ()

let rec wait t =
  match Unix.waitpid [] t.pid with
  | _ -> live := List.filter (( <> ) t.pid) !live
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait t

(* SIGKILL and reap: the crash the recovery phase measures. *)
let kill t =
  (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
  wait t
