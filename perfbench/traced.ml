(* The traced run: the workload's identical request stream replayed
   in-process through the daemon's own layers, in the daemon's order —
   parse, [Tier.apply], group commit every 8 journaled mutations and at
   the end of each batch, [Tier.validate] — with the benchmark's spans
   around each public call and the layers' existing public counters read
   around them (the kernel's [Manager.stats], [Planner.stats], the index
   lifecycle statistics and the checker's telemetry spans and events).

   Lower-layer time inside a public call is measured on an identically
   prepared copy: every mutation is also applied to a bare [Core.Index]
   over its own copy of the base data, and journaled to a WAL of its own,
   and the tier's self time is the apply time less those.  An untraced
   replay of the same cycles gives the tracing overhead. *)

module P = Fcv_server.Protocol
module Tier = Fcv_server.Tier
module Shard = Fcv_server.Shard
module T = Fcv_util.Telemetry
module J = Fcv_util.Telemetry.Json
module M = Fcv_bdd.Manager

let now = Unix.gettimeofday

(* Per-operation time samples, in seconds. *)
type series = { mutable xs : float list; mutable sum : float; mutable n : int }

let series () = { xs = []; sum = 0.; n = 0 }

let add s x =
  s.xs <- x :: s.xs;
  s.sum <- s.sum +. x;
  s.n <- s.n + 1

let mean s = if s.n = 0 then 0. else s.sum /. float_of_int s.n
let med s = if s.n = 0 then 0. else Bstats.median s.xs

let timed s f =
  let t0 = now () in
  let r = f () in
  add s (now () -. t0);
  r

type layers = {
  parse : series;
  apply : series;  (** [Tier.apply], whole *)
  reply : series;
  index : series;  (** the bare index copy: one row update *)
  wal_append : series;  (** the WAL copy: one append *)
  copy_gc : series;  (** the index copy's reclamation, after each validate *)
  flush : series;
  gc : series;  (** [Monitor.maybe_gc] per shard, before each validate *)
  validate : series;  (** [Tier.validate] *)
  validate_reply : series;
  mutable kernel : M.stats;  (** [Manager.stats] deltas summed over validates and shards *)
  mutable copy_rebuilds : int;  (** the copy's share of the [index.rebuilds] counter *)
  mutable fanout : int;
  mutable flushed_records : int;
  mutable gc_runs : int;
  mutable recycles : int;
  mutable reclaimed : int;
  mutable fresh : int;
  mutable cached : int;
  mutable entailed : int;
}

let zero_stats =
  {
    M.nodes = 0; peak_nodes = 0; variables = 0; unique_hits = 0; unique_misses = 0;
    unique_buckets = 0; unique_max_bucket = 0; op_cache_hits = 0; op_cache_lookups = 0;
    op_cache_entries = 0; op_cache_flushes = 0; budget_trips = 0; compact_reclaimed = 0;
    op_calls = [];
  }

(* [acc] plus the counter growth from [a] to [b] (one manager). *)
let add_delta (acc : M.stats) (a : M.stats) (b : M.stats) =
  {
    acc with
    M.unique_misses = acc.M.unique_misses + b.M.unique_misses - a.M.unique_misses;
    op_cache_hits = acc.M.op_cache_hits + b.M.op_cache_hits - a.M.op_cache_hits;
    op_cache_lookups = acc.M.op_cache_lookups + b.M.op_cache_lookups - a.M.op_cache_lookups;
    op_cache_flushes = acc.M.op_cache_flushes + b.M.op_cache_flushes - a.M.op_cache_flushes;
    budget_trips = acc.M.budget_trips + b.M.budget_trips - a.M.budget_trips;
  }

let layers () =
  {
    parse = series (); apply = series (); reply = series (); index = series ();
    wal_append = series (); copy_gc = series (); flush = series (); gc = series (); validate = series ();
    validate_reply = series (); kernel = zero_stats; copy_rebuilds = 0; fanout = 0; flushed_records = 0; gc_runs = 0; recycles = 0;
    reclaimed = 0; fresh = 0; cached = 0; entailed = 0;
  }

(* The daemon's validate reply body, as [Server] renders it. *)
let json_of_report (rep : Core.Monitor.report) =
  let reg = rep.Core.Monitor.constraint_ in
  T.Obj
    ([
       ("constraint", T.Int reg.Core.Monitor.id);
       ("source", T.String reg.Core.Monitor.source);
       ("outcome", T.String (match rep.Core.Monitor.outcome with Core.Checker.Satisfied -> "satisfied" | Core.Checker.Violated -> "violated"));
       ("fresh", T.Bool rep.Core.Monitor.fresh);
       ("ms", T.Float rep.Core.Monitor.elapsed_ms);
     ]
    @
    match rep.Core.Monitor.rate with
    | None -> []
    | Some rt ->
      [
        ("rate", T.Float rt.Core.Checker.ratio);
        ("threshold", T.Float rt.Core.Checker.threshold);
        ("violations", T.String (Fcv_bdd.Nat.to_string rt.Core.Checker.violations));
        ("bindings", T.String (Fcv_bdd.Nat.to_string rt.Core.Checker.total));
      ])

type tier_run = {
  tier : Tier.t;
  copy : (Core.Index.t * Fcv_server.Wal.t) option;
  l : layers;
  c : E2e.ctx;
}

let monitors tier = Array.to_list (Array.map Shard.monitor (Tier.shards tier))
let indices tier = List.map Core.Monitor.index (monitors tier)

(* A fresh tier as `fcv serve` builds it: recover an empty state
   directory, build every constraint's indices, register through the
   durable path, one validation domain per shard. *)
let boot ~data ~state (w : Workload.t) =
  E2e.rm_rf state;
  let load_base () = Workload.load_csv data in
  let tier, _ =
    Tier.recover ~max_nodes:1_000_000 ~shards:w.Workload.shards ~fsync:true ~state_dir:state ~load_base ()
  in
  Tier.set_jobs tier 1;
  List.iter
    (fun src ->
      let spec = Core.Fol_parser.spec_of_string src in
      List.iter
        (fun index -> Core.Checker.ensure_indices ~strategy:Core.Ordering.Prob_converge index [ spec.Core.Formula.formula ])
        (indices tier);
      ignore (Tier.register tier src);
      Tier.flush tier)
    w.Workload.constraints;
  tier

let make_copy ~data ~dir (w : Workload.t) =
  let index = Core.Index.create ~max_nodes:0 (Workload.load_csv data) in
  Core.Checker.ensure_indices ~strategy:Core.Ordering.Prob_converge index
    (List.map (fun s -> (Core.Fol_parser.spec_of_string s).Core.Formula.formula) w.Workload.constraints);
  (index, Fcv_server.Wal.open_ ~fsync_every:0 (Filename.concat dir "copy.log"))

let copies_s l = l.index.sum +. l.wal_append.sum +. l.copy_gc.sum

let c_rebuilds = T.counter "index.rebuilds"

(* [f] on the copy: the rebuilds it counts are the copy's. *)
let on_copy r s f =
  let rebuilds = T.counter_value c_rebuilds in
  let x = timed s f in
  r.l.copy_rebuilds <- r.l.copy_rebuilds + T.counter_value c_rebuilds - rebuilds;
  x

let flush r =
  let pending = Tier.pending r.tier in
  if pending > 0 then begin
    r.l.flushed_records <- r.l.flushed_records + pending;
    timed r.l.flush (fun () -> Tier.flush r.tier)
  end

let mutation r (id, line) (m : Workload.mutation) =
  let rid, req =
    match timed r.l.parse (fun () -> P.parse_request line) with
    | Ok x -> x
    | Error (_, msg) -> failwith ("traced: unparsable stream line: " ^ msg)
  in
  let fanout = List.length (Tier.targets r.tier req) in
  let reply =
    match timed r.l.apply (fun () -> Tier.apply r.tier req) with
    | Ok fields -> timed r.l.reply (fun () -> P.ok_line ?id:rid fields)
    | Error (code, msg) -> P.error_line ?id:rid code msg
  in
  E2e.check_ack r.c id m reply;
  r.l.fanout <- r.l.fanout + fanout;
  match r.copy with
  | None -> ()
  | Some (index, wal) -> (
    timed r.l.wal_append (fun () -> Fcv_server.Wal.append wal req);
    let db = index.Core.Index.db in
    match P.code_row ~intern:true db ~table:m.Workload.table m.Workload.row with
    | P.Coded row ->
      on_copy r r.l.index (fun () ->
          if m.Workload.insert then Core.Index.insert index ~table_name:m.Workload.table row
          else ignore (Core.Index.delete index ~table_name:m.Workload.table row))
    | P.Unknown_value _ -> ())

let sum_pstats tier =
  List.fold_left
    (fun (a : Core.Planner.stats) mon ->
      let s = Core.Planner.stats (Core.Monitor.planner mon) in
      {
        Core.Planner.hits = a.Core.Planner.hits + s.Core.Planner.hits;
        misses = a.misses + s.misses;
        probes = a.probes + s.probes;
        replans = a.replans + s.replans;
      })
    { Core.Planner.hits = 0; misses = 0; probes = 0; replans = 0 }
    (monitors tier)

let validate r ~expected =
  List.iter
    (fun mon ->
      let a = timed r.l.gc (fun () -> Core.Monitor.maybe_gc mon) in
      if a.Core.Lifecycle.gc_ran then r.l.gc_runs <- r.l.gc_runs + 1;
      if a.Core.Lifecycle.recycled then r.l.recycles <- r.l.recycles + 1;
      r.l.reclaimed <- r.l.reclaimed + a.Core.Lifecycle.reclaimed)
    (monitors r.tier);
  (* reclamation has run, so no manager is swapped inside the validate *)
  let before = List.map (fun i -> M.stats (Core.Index.mgr i)) (indices r.tier) in
  let reports = timed r.l.validate (fun () -> Tier.validate r.tier) in
  List.iter2
    (fun a i -> r.l.kernel <- add_delta r.l.kernel a (M.stats (Core.Index.mgr i)))
    before (indices r.tier);
  let line =
    timed r.l.validate_reply (fun () ->
        let violated =
          List.length (List.filter (fun rep -> rep.Core.Monitor.outcome = Core.Checker.Violated) reports)
        in
        P.ok_line [ ("violated", T.Int violated); ("reports", T.List (List.map json_of_report reports)) ])
  in
  E2e.check_verdicts r.c ~what:"replayed validate" expected line;
  List.iter
    (fun (rep : Core.Monitor.report) ->
      if rep.Core.Monitor.fresh then r.l.fresh <- r.l.fresh + 1
      else if rep.Core.Monitor.constraint_.Core.Monitor.entailed_by <> None then r.l.entailed <- r.l.entailed + 1
      else r.l.cached <- r.l.cached + 1)
    reports;
  match r.copy with
  | Some (index, _) -> ignore (on_copy r r.l.copy_gc (fun () -> Core.Lifecycle.maybe_gc index))
  | None -> ()

let step r = function
  | E2e.RBatch { payload; muts } ->
    List.iteri
      (fun i p ->
        mutation r p muts.(i);
        if Tier.pending r.tier >= 8 then flush r)
      payload;
    flush r
  | E2e.RValidate { slot; _ } -> validate r ~expected:r.c.E2e.slots.(slot)

(* -- one replay ------------------------------------------------------------------ *)

type outcome = {
  l : layers;
  wall_s : float;  (** the cycles, less the copies' work *)
  mutations : int;
  validations : int;
  peak_nodes : int;  (** lifetime peak, largest shard *)
  pstats : Core.Planner.stats * Core.Planner.stats;
  build_ms : float;
}

let replay ~traced ~data ~dir ~(c : E2e.ctx) ~stream ~first ~cycles (w : Workload.t) =
  let state = Filename.concat dir (if traced then "traced-state" else "replay-state") in
  let tier = boot ~data ~state w in
  let copy = if traced then Some (make_copy ~data ~dir w) else None in
  let r = { tier; copy; l = layers (); c } in
  validate r ~expected:c.E2e.base;
  let build_ms =
    List.fold_left
      (fun acc index ->
        List.fold_left (fun a e -> a +. (e.Core.Index.build_time *. 1000.)) acc (Core.Index.entries index))
      0. (indices tier)
  in
  for k = 0 to first - 1 do
    Array.iter (step r) stream.(k)
  done;
  (* fresh series: the cold validate and the warm-up are not measured *)
  let r = { r with l = layers () } in
  if traced then begin
    T.reset ();
    T.enable ()
  end;
  let p0 = sum_pstats tier in
  let t0 = now () in
  let mutations = ref 0 and validations = ref 0 in
  for k = first to cycles - 1 do
    Array.iter
      (fun s ->
        (match s with
        | E2e.RBatch { payload; _ } -> mutations := !mutations + List.length payload
        | E2e.RValidate _ -> incr validations);
        step r s)
      stream.(k)
  done;
  let wall_s = now () -. t0 -. copies_s r.l in
  if traced then T.disable ();
  let p1 = sum_pstats tier in
  let peak_nodes = List.fold_left (fun a i -> max a (Core.Index.peak_nodes i)) 0 (indices tier) in
  Tier.close tier;
  (match copy with Some (_, wal) -> Fcv_server.Wal.close wal | None -> ());
  {
    l = r.l; wall_s; mutations = !mutations; validations = !validations; peak_nodes;
    pstats = (p0, p1); build_ms;
  }

(* The recovery experiment of the end-to-end run, in-process: a fresh
   tier, a snapshot, the first [recover_cycles] cycles journaled, the tier
   dropped without a final snapshot, then recovered from its directory.
   Returns the snapshot and recovery times and the records replayed. *)
let recovery ~data ~dir ~(c : E2e.ctx) ~journal (w : Workload.t) =
  let state = Filename.concat dir "recovery-state" in
  let tier = boot ~data ~state w in
  let r = { tier; copy = None; l = layers (); c } in
  let (), snapshot_ms = Fcv_util.Timer.time_ms (fun () -> Tier.snapshot tier) in
  Array.iter (Array.iter (step r)) journal;
  Tier.close tier;
  let (tier, rs), replay_ms =
    Fcv_util.Timer.time_ms (fun () ->
        Tier.recover ~max_nodes:1_000_000 ~shards:w.Workload.shards ~fsync:true ~state_dir:state
          ~load_base:(fun () -> Workload.load_csv data)
          ())
  in
  Tier.close tier;
  (snapshot_ms, replay_ms, Array.fold_left (fun a x -> a + x.Shard.replayed) 0 rs)

(* -- per-layer metrics ------------------------------------------------------------ *)

let hist_ms name = T.histogram_sum (T.histogram ("span." ^ name))
let hist_n name = T.histogram_count (T.histogram ("span." ^ name))

(* Time in budget-tripping checks, from the checker's [check.done]
   events: the ε-probes, and any check before its demotion to SQL. *)
let trip_ms () =
  List.fold_left
    (fun acc ev ->
      match
        ( J.member "kind" ev,
          J.member "budget_trips" ev,
          J.member "elapsed_ms" ev,
          J.member "bdd_overhead_ms" ev )
      with
      | Some (T.String "check.done"), Some (T.Int b), Some (T.Float ms), Some (T.Float abandoned) when b > 0 ->
        acc +. ms +. abandoned
      | _ -> acc)
    0. (T.events ())

(* [unattributed_ms] comes from the socket run: its validates' mean
   round trip less the daemon's own mean time for them. *)
let metrics ~unattributed_ms ~recovery:(snapshot_ms, replay_ms, replayed) ~(plain : outcome)
    ~(traced : outcome) =
  let o = traced and l = traced.l in
  let v = float_of_int (max 1 o.validations) and nm = float_of_int (max 1 o.mutations) in
  let k = l.kernel and p0, p1 = o.pstats in
  let us x = x *. 1e6 and ms x = x *. 1e3 in
  let trip_ms = trip_ms () in
  let check_nodes = k.M.unique_misses in
  let compile_ms = hist_ms "compile" and verdict_ms = hist_ms "verdict" in
  let checks = T.counter_value (T.counter "checker.checks") in
  let sql = T.counter_value (T.counter "checker.fallbacks.sql") + T.counter_value (T.counter "checker.fallbacks.naive") in
  let fd = hist_n "fd_fast_path" in
  let soft = hist_n "check_soft" in
  (* checks reached through [Checker.check] that went neither to SQL
     nor through the FD fast path *)
  let bdd_checks = max 0 (checks - sql - fd) in
  let check_ms = hist_ms "check" +. hist_ms "check_soft" in
  let plans = (p1.Core.Planner.hits - p0.Core.Planner.hits) + (p1.misses - p0.misses) + (p1.replans - p0.replans) + (p1.probes - p0.probes) in
  let monitor_self_ms = ms l.validate.sum -. check_ms in
  let fanout = float_of_int l.fanout /. nm in
  (* the copy is one whole index and one WAL: the owner's share of the
     work; a sharded tier's watcher updates stay in its self time *)
  let lower_us = us (mean l.index) +. us (mean l.wal_append) in
  [
    ("bdd.nodes_allocated", "1/validate", float_of_int check_nodes /. v);
    ("bdd.ns_per_node", "ns", if check_nodes = 0 then 0. else (compile_ms +. verdict_ms) *. 1e6 /. float_of_int check_nodes);
    ( "bdd.op_cache_hit_rate", "%",
      if k.M.op_cache_lookups = 0 then 0.
      else 100. *. float_of_int k.M.op_cache_hits /. float_of_int k.M.op_cache_lookups );
    ("bdd.op_cache_flushes", "1/validate", float_of_int k.M.op_cache_flushes /. v);
    ("bdd.budget_trips", "1/validate", float_of_int k.M.budget_trips /. v);
    ("bdd.peak_nodes", "nodes", float_of_int o.peak_nodes);
    ("index.build_ms", "ms", o.build_ms);
    ("index.update_us", "us", us (mean l.index));
    ("index.rebuilds", "1/kmutation", 1000. *. float_of_int (T.counter_value c_rebuilds - l.copy_rebuilds) /. nm);
    ("check.typing_ms", "ms", hist_ms "typing" /. v);
    ("check.rewrite_ms", "ms", hist_ms "rewrite" /. v);
    ("check.compile_ms", "ms", compile_ms /. v);
    ("check.verdict_ms", "ms", verdict_ms /. v);
    ("check.sql_ms", "ms", hist_ms "fallback" /. v);
    ("check.soft_ms", "ms", hist_ms "check_soft" /. v);
    ("check.bdd_checks", "1/validate", float_of_int bdd_checks /. v);
    ("check.fd_checks", "1/validate", float_of_int fd /. v);
    ("check.sql_checks", "1/validate", float_of_int sql /. v);
    ("check.soft_checks", "1/validate", float_of_int soft /. v);
    ("planner.plan_us", "us", if plans = 0 then 0. else monitor_self_ms *. 1e3 /. float_of_int plans);
    ("planner.hits", "1/validate", float_of_int (p1.Core.Planner.hits - p0.Core.Planner.hits) /. v);
    ("planner.misses", "1/validate", float_of_int (p1.misses - p0.misses) /. v);
    ("planner.probes", "1/validate", float_of_int (p1.probes - p0.probes) /. v);
    ("planner.replans", "1/validate", float_of_int (p1.replans - p0.replans) /. v);
    ("planner.probe_ms", "ms", trip_ms /. v);
    ("monitor.validate_ms", "ms", ms (med l.validate));
    ("monitor.self_ms", "ms", monitor_self_ms /. v);
    ("monitor.fresh", "1/validate", float_of_int l.fresh /. v);
    ("monitor.cached", "1/validate", float_of_int l.cached /. v);
    ("monitor.entailed", "1/validate", float_of_int l.entailed /. v);
    ("lifecycle.gc_ms", "ms", ms l.gc.sum /. v);
    ("lifecycle.gc_runs", "1/validate", float_of_int l.gc_runs /. v);
    ("lifecycle.recycles", "1/validate", float_of_int l.recycles /. v);
    ("lifecycle.reclaimed_nodes", "1/validate", float_of_int l.reclaimed /. v);
    ("tier.apply_us", "us", us (mean l.apply) -. lower_us);
    ("tier.fanout", "shards", fanout);
    ("wal.append_us", "us", us (mean l.wal_append));
    ("wal.flush_ms", "ms", ms (mean l.flush));
    ("wal.records_per_flush", "records", if l.flush.n = 0 then 0. else float_of_int l.flushed_records /. float_of_int l.flush.n);
    ("wal.snapshot_ms", "ms", snapshot_ms);
    ("wal.replay_ms", "ms", replay_ms);
    ("wal.replayed_records", "records", float_of_int replayed);
    ("server.parse_us", "us", us (mean l.parse));
    ("server.reply_us", "us", us (mean l.reply));
    ("server.validate_reply_ms", "ms", ms (med l.validate_reply));
    ("server.unattributed_ms", "ms", unattributed_ms);
    ("trace.overhead_pct", "%", 100. *. (traced.wall_s -. plain.wall_s) /. plain.wall_s);
  ]
