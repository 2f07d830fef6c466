(* The load generator's side of one Unix-socket connection: pipelined
   writes, and replies read back with their arrival times. *)

type t = { fd : Unix.file_descr; buf : Bytes.t; mutable pending : string }

let connect ~timeout sock =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec attempt () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Unix.gettimeofday () < deadline ->
      Unix.close fd;
      Unix.sleepf 0.001;
      attempt ()
  in
  { fd = attempt (); buf = Bytes.create 65536; pending = "" }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let now = Unix.gettimeofday

(* Write every line in one go; returns the send time. *)
let send t ls =
  let s = String.concat "" (List.map (fun (_, l) -> l ^ "\n") ls) in
  let t0 = now () in
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring t.fd s !off (n - !off)
  done;
  t0

(* Read [n] reply lines, each with the time the read returning it ended. *)
let recv t n =
  let out = ref [] and got = ref 0 in
  while !got < n do
    let k = Unix.read t.fd t.buf 0 (Bytes.length t.buf) in
    if k = 0 then raise End_of_file;
    let at = now () in
    let data = t.pending ^ Bytes.sub_string t.buf 0 k in
    let parts = String.split_on_char '\n' data in
    let rec take = function
      | [ last ] -> t.pending <- last
      | l :: rest ->
        out := (l, at) :: !out;
        incr got;
        take rest
      | [] -> t.pending <- ""
    in
    take parts
  done;
  if !got > n then failwith "wire: more replies than requests";
  List.rev !out

(* One request, waited for: reply line and round-trip seconds. *)
let call t ~id req =
  let t0 = send t [ (id, Fcv_server.Protocol.request_to_line ~id:(Fcv_util.Telemetry.Int id) req) ] in
  match recv t 1 with
  | [ (line, at) ] -> (line, at -. t0)
  | _ -> assert false
