(* Running one workload and printing its result. *)

module T = Fcv_util.Telemetry
module J = Fcv_util.Telemetry.Json

(* Filesystem type of the mount holding [path], from /proc/self/mountinfo:
   fsync cost depends on it, so the output says where the state lives. *)
let fs_type path =
  let path = try Unix.realpath path with Unix.Unix_error _ -> path in
  let prefix m = m = "/" || path = m || String.starts_with ~prefix:(m ^ "/") path in
  match open_in "/proc/self/mountinfo" with
  | exception Sys_error _ -> "unknown"
  | ic ->
    let best = ref ("", "unknown") in
    (try
       while true do
         match String.split_on_char ' ' (input_line ic) with
         | _ :: _ :: _ :: _ :: mnt :: rest when prefix mnt -> (
           let rec after_dash = function "-" :: fs :: _ -> Some fs | _ :: r -> after_dash r | [] -> None in
           match after_dash rest with
           | Some fs when String.length mnt >= String.length (fst !best) -> best := (mnt, fs)
           | _ -> ())
         | _ -> ()
       done
     with End_of_file -> ());
    close_in ic;
    snd !best

type metric = { name : string; unit_ : string; value : float }

let json_line ~correct ~attempted ~failed metrics =
  J.to_string
    (T.Obj
       [
         ("correct", T.Bool correct);
         ("attempted", T.Int attempted);
         ("failed", T.Int failed);
         ( "metrics",
           T.Obj
             (List.map
                (fun m -> (m.name, T.Obj [ ("value", T.Float m.value); ("unit", T.String m.unit_) ]))
                metrics) );
       ])

let print_metrics metrics =
  List.iter (fun m -> Printf.printf "  %-28s %14.4f %s\n" m.name m.value m.unit_) metrics

let tail_metric name xs =
  match Bstats.tail xs with
  | Some t ->
    Printf.printf "  %s = p%.2f of %d samples (10 beyond it)\n" name t.Bstats.pct t.Bstats.n;
    t.Bstats.value
  | None ->
    Printf.printf "  %s: only %d samples, the maximum stands in for the tail\n" name (List.length xs);
    List.fold_left max neg_infinity xs

let all_samples (r : E2e.result) f = List.concat_map (fun (s, _, _) -> f s) r.E2e.slices

(* The median over slices of a per-slice figure. *)
let over_slices (r : E2e.result) f = Bstats.median (List.map (fun (s, secs, _) -> f s secs) r.E2e.slices)

let end_to_end (r : E2e.result) =
  let count f = List.fold_left (fun a (s, _, _) -> a + f s) 0 r.E2e.slices in
  Printf.printf "  timed phase %.2f s in %d slices: cycles %d-%d, %d mutations, %d validations\n" r.E2e.timed_s
    (List.length r.E2e.slices) r.E2e.first (r.E2e.cycles - 1)
    (count (fun s -> s.E2e.mutations))
    (count (fun s -> s.E2e.validations));
  Printf.printf "  setup_s samples: %s\n  recover_s samples: %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.3f") (List.rev r.E2e.setup_s)))
    (String.concat " " (List.map (Printf.sprintf "%.3f") (List.rev r.E2e.recover_s)));
  let validate_tail = tail_metric "validate_tail_ms" (all_samples r (fun s -> s.E2e.validates)) in
  let ack_tail = tail_metric "ack_tail_ms" (all_samples r (fun s -> s.E2e.batches)) in
  print_endline "  measured, not reported:";
  let rate f = over_slices r (fun s secs -> float_of_int (f s) /. secs) in
  (* measured and printed, but not reported as metrics: over ten runs on
     a 2-vCPU machine their quartile spread reached 24-29% (NOTES.md) *)
  print_metrics
    [
      { name = "validate_p50_ms"; unit_ = "ms"; value = over_slices r (fun s _ -> Bstats.median s.E2e.validates) };
      { name = "ack_p50_ms"; unit_ = "ms"; value = over_slices r (fun s _ -> Bstats.median s.E2e.acks) };
      { name = "recover_s"; unit_ = "s"; value = Bstats.median r.E2e.recover_s };
    ];
  [
    { name = "setup_s"; unit_ = "s"; value = Bstats.median r.E2e.setup_s };
    { name = "validate_tail_ms"; unit_ = "ms"; value = validate_tail };
    { name = "validations_per_s"; unit_ = "1/s"; value = rate (fun s -> s.E2e.validations) };
    { name = "mutations_per_s"; unit_ = "1/s"; value = rate (fun s -> s.E2e.mutations) };
    { name = "ack_tail_ms"; unit_ = "ms"; value = ack_tail };
    { name = "peak_rss_mb"; unit_ = "MiB"; value = r.E2e.peak_rss_mb };
  ]

(* The mean time a validate spends outside the daemon's own handling of
   it (socket, event loop, the reply's write): the socket run's mean round
   trip less the daemon's mean time for the same validates, from the
   [server.op.validate] histogram in the telemetry the daemon wrote. *)
let unattributed_ms (c : E2e.ctx) ~telemetry (r : E2e.result) =
  let ic = open_in telemetry in
  let rec find () =
    match input_line ic with
    | exception End_of_file -> None
    | line when not (String.starts_with ~prefix:{|{"kind":"histogram"|} line) -> find ()
    | line -> (
      let j = J.of_string line in
      match (J.member "name" j, J.member "count" j, J.member "sum" j) with
      | Some (T.String "server.op.validate"), Some (T.Int n), Some (T.Float sum) -> Some (n, sum)
      | Some (T.String "server.op.validate"), Some (T.Int n), Some (T.Int sum) -> Some (n, float_of_int sum)
      | _ -> find ())
  in
  let daemon = Fun.protect ~finally:(fun () -> close_in ic) find in
  let rtts = r.E2e.lifetime_validates_ms in
  match daemon with
  | Some (n, sum) when n = List.length rtts ->
    (List.fold_left ( +. ) 0. rtts -. sum) /. float_of_int n
  | Some (n, _) ->
    E2e.fail c "the daemon counted %d validates, the client sent %d" n (List.length rtts);
    nan
  | None ->
    E2e.fail c "no server.op.validate histogram in the daemon's telemetry";
    nan

let per_layer (pr : E2e.prepared) ~telemetry (r : E2e.result) =
  (* the cycles of the first two slices, replayed twice, keep the run
     short *)
  let first = r.E2e.first in
  let head = List.filteri (fun i _ -> i < 2) r.E2e.slices in
  let cycles = List.fold_left (fun a (_, _, k) -> max a k) (first + 1) head in
  (* drop the rest of the rendered stream: the replays share this
     process's heap, and a smaller heap keeps their GC closer to the
     daemon's *)
  Array.fill pr.E2e.stream cycles (Array.length pr.E2e.stream - cycles) [||];
  Gc.compact ();
  let replay traced =
    Traced.replay ~traced ~data:pr.E2e.p.E2e.data ~dir:pr.E2e.p.E2e.dir ~c:pr.E2e.c ~stream:pr.E2e.stream ~first
      ~cycles pr.E2e.w
  in
  let plain = replay false in
  let traced = replay true in
  let recovery = Traced.recovery ~data:pr.E2e.p.E2e.data ~dir:pr.E2e.p.E2e.dir ~c:pr.E2e.c ~journal:pr.E2e.journal pr.E2e.w in
  Printf.printf "  replayed cycles %d-%d in-process: %.2f s untraced, %.2f s traced\n" first (cycles - 1)
    plain.Traced.wall_s traced.Traced.wall_s;
  List.map
    (fun (name, unit_, value) -> { name; unit_; value })
    (Traced.metrics ~unattributed_ms:(unattributed_ms pr.E2e.c ~telemetry r) ~recovery ~plain ~traced)

let main ~fcv ~work ~workload ~seed ~seconds ~trace =
  if not (Sys.file_exists work) then Sys.mkdir work 0o755;
  let dir = Filename.concat work (Printf.sprintf "%s-%d-%d" workload seed (Unix.getpid ())) in
  E2e.rm_rf dir;
  Sys.mkdir dir 0o755;
  at_exit (fun () ->
      Daemon.kill_all ();
      E2e.rm_rf dir);
  let w = Workload.make workload ~seed in
  Printf.printf "perfbench %s: seed %d, %d s timed, %d constraints, %d shard(s), -j 1, fsync on, group commit 8\n"
    workload seed seconds (List.length w.Workload.constraints) w.Workload.shards;
  let fs = fs_type dir in
  Printf.printf "  state directory on %s (%s)\n%!" fs
    (if fs = "tmpfs" then "fsync cost is the program's" else "not tmpfs: fsync cost includes the disk's");
  let pr = E2e.prepare ~fcv ~dir ~seconds w in
  let metrics =
    if trace then
      let telemetry = Filename.concat dir "daemon-telemetry.jsonl" in
      per_layer pr ~telemetry (E2e.run ~setups:1 ~recoveries:0 ~telemetry ~seconds pr)
    else end_to_end (E2e.run ~seconds pr)
  in
  if not trace then print_endline "  reported:";
  print_metrics metrics;
  let c = pr.E2e.c in
  (* a metric that could not be measured fails the run and reads 0, so
     the result line stays valid JSON *)
  let metrics =
    List.map
      (fun m ->
        if Float.is_finite m.value then m
        else begin
          E2e.fail c "%s could not be measured" m.name;
          { m with value = 0. }
        end)
      metrics
  in
  let correct = c.E2e.failed = 0 in
  Printf.printf "  %d operations attempted, %d failed\n" c.E2e.attempted c.E2e.failed;
  print_endline (json_line ~correct ~attempted:c.E2e.attempted ~failed:c.E2e.failed metrics);
  if correct then 0 else 1
