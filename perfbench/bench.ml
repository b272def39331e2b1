(* Benchmark entry point.

   bench.exe --workload NAME --seed N --seconds S --trace 0|1

   One run executes K repetitions of a workload, each with its own
   seed derived from N; K depends only on S and the workload, so a
   (seed, S) pair fixes every virtual result. Virtual metrics pool
   every repetition's samples; host metrics are medians over
   repetitions, in reference seconds ({!Probe.host_speed}).
   Repetition 0 runs a second time and must reproduce itself exactly. The run prints each
   metric by name and unit and ends with one JSON line: end-to-end
   metrics with --trace 0, per-layer metrics with --trace 1. Exits 1 on
   any correctness failure. *)

module Stats = Metrics.Stats
module Tracer = Metrics.Tracer

type metric = { name : string; unit : string; value : float; note : string }

let metric ?(note = "") name unit value = { name; unit; value; note }

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Percentile of a collector, 0 when the layer recorded nothing. *)
let pct s p = if Stats.count s = 0 then 0.0 else Stats.percentile s p

let pool = function
  | [] -> Stats.create ()
  | s :: rest -> List.fold_left Stats.merge s rest

let sum f rs = List.fold_left (fun acc r -> acc +. f r) 0.0 rs
let sum_int f rs = List.fold_left (fun acc r -> acc + f r) 0 rs

(* --- repetitions -------------------------------------------------------- *)

let rep (w : Workloads.t) ~seed ~traced k =
  let speed = Probe.host_speed () in
  (* Start every repetition from a compacted heap so one does not pay
     for the garbage of the one before, or of the speed kernel. *)
  Gc.compact ();
  let r = Probe.new_rep ~seed:((seed * 1000) + k) ~traced ~limit_ms:w.limit_ms ~speed in
  w.run r;
  r

let repetitions (w : Workloads.t) ~seconds =
  max 3 (int_of_float (0.8 *. float_of_int seconds /. w.rep_cpu_s))

(* Everything virtual about a repetition: equal across same-seed runs. *)
let signature (r : Probe.rep) =
  Printf.sprintf "attempted=%d completed=%d failed=%d events=%d window=%h hash=%d"
    r.attempted r.completed r.failed r.events r.window_ms r.fingerprint

(* --- checks --------------------------------------------------------------- *)

let p99_min_samples = 1000 (* at least 10 samples beyond the p99 *)

let backlog_bound = 0.10

(* [pairs] are repetitions that must be virtually identical: a rerun of
   the same seed, or the traced twin of an untraced repetition. *)
let check (w : Workloads.t) (rs : Probe.rep list) ~pairs =
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  List.iter
    (fun (r : Probe.rep) ->
      List.iter (fun v -> fail "seed %d: %s" r.seed v) (List.rev r.violations);
      if r.attempted <> r.completed + r.failed then
        fail "seed %d: attempted %d <> completed %d + failed %d" r.seed
          r.attempted r.completed r.failed;
      if r.attempted <> r.expected then
        fail "seed %d: issued %d calls, the workload meant %d" r.seed r.attempted
          r.expected;
      (* No growing backlog under open-loop load: the second half of the
         arrivals must see the same median write latency as the first. *)
      if w.name = "replicated-openloop" then begin
        let a = Probe.get r.tally "openloop.first_half_write_p50_ms"
        and b = Probe.get r.tally "openloop.second_half_write_p50_ms" in
        if Float.abs (b -. a) > backlog_bound *. a then
          fail "seed %d: write p50 drifts from %.2f to %.2f ms between halves"
            r.seed a b
      end)
    rs;
  List.iter
    (fun ((a : Probe.rep), (b : Probe.rep)) ->
      if signature a <> signature b then
        fail "seed %d does not reproduce: %s vs %s" a.seed (signature a)
          (signature b))
    pairs;
  List.iter
    (fun (label, n) ->
      if n < p99_min_samples then
        fail "%s p99 rests on %d samples (< %d)" label n p99_min_samples)
    [
      ("read", sum_int (fun (r : Probe.rep) -> Stats.count r.reads) rs);
      ("write", sum_int (fun (r : Probe.rep) -> Stats.count r.writes) rs);
    ];
  List.rev !errors

(* --- end-to-end metrics ------------------------------------------------ *)

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* Host times below are in reference seconds ({!Probe.host_speed}). *)
let drive_s (r : Probe.rep) = Probe.ref_s r (Probe.drive r).cpu
let setup_s (r : Probe.rep) = Probe.ref_s r r.setup.cpu

let latencies (rs : Probe.rep list) =
  ( pool (List.map (fun (r : Probe.rep) -> r.reads) rs),
    pool (List.map (fun (r : Probe.rep) -> r.writes) rs) )

let end_to_end (rs : Probe.rep list) =
  let reads, writes = latencies rs in
  let n s = Printf.sprintf "n=%d" (Stats.count s) in
  let k = Printf.sprintf "median of %d" (List.length rs) in
  let limit = (List.hd rs).limit_ms in
  [
    metric "read_mean_ms" "ms" (Stats.mean reads) ~note:(n reads);
    metric "read_p99_ms" "ms" (pct reads 0.99) ~note:(n reads);
    metric "write_mean_ms" "ms" (Stats.mean writes) ~note:(n writes);
    metric "write_p99_ms" "ms" (pct writes 0.99) ~note:(n writes);
    metric "goodput_rps" "1/s"
      (float_of_int (sum_int (fun (r : Probe.rep) -> r.within_limit) rs)
      /. (sum (fun (r : Probe.rep) -> r.window_ms) rs /. 1000.0))
      ~note:(Printf.sprintf "limit %.0f ms" limit);
    metric "setup_s" "s" (median (List.map setup_s rs)) ~note:k;
    metric "req_per_cpu_s" "1/s"
      (median (List.map (fun (r : Probe.rep) -> float_of_int r.completed /. drive_s r) rs))
      ~note:k;
    metric "heap_peak_mb" "MB" (heap_peak_mb ());
  ]

(* Printed beside the end-to-end metrics but kept out of the JSON. The
   medians sit on compute-bound latency atoms that no seed moves (the
   means carry the gate); the raw CPU figures show what the reference
   scaling did; failures and violations are 0 on a correct run, where
   any non-zero value already fails the run. *)
let printed_only (rs : Probe.rep list) errors =
  let reads, writes = latencies rs in
  let attempted = sum_int (fun (r : Probe.rep) -> r.attempted) rs in
  let failed = sum_int (fun (r : Probe.rep) -> r.failed) rs in
  [
    metric "read_p50_ms" "ms" (pct reads 0.5);
    metric "write_p50_ms" "ms" (pct writes 0.5);
    metric "setup_cpu_s" "s" (median (List.map (fun (r : Probe.rep) -> r.setup.cpu) rs));
    metric "req_per_raw_cpu_s" "1/s"
      (median
         (List.map (fun (r : Probe.rep) -> float_of_int r.completed /. (Probe.drive r).cpu) rs));
    metric "failed_frac" "ratio" (ratio (float_of_int failed) (float_of_int attempted));
    metric "violations" "count" (float_of_int (List.length errors));
  ]

(* --- per-layer metrics -------------------------------------------------- *)

let runtime_phases =
  [ "invoke_overhead"; "frw_predict"; "speculate"; "lvi_rtt"; "followup_post";
    "cache_repair"; "direct_exec" ]

let server_phases = [ "lock_wait"; "validate"; "backup_exec"; "raft_persist" ]
let stages = [ "admit"; "lock"; "settle"; "validate"; "ro_validate" ]

let wires =
  [ "lvi"; "followup"; "exec"; "cache_update"; "lease_revoke"; "shard_prepare";
    "raft" ]

(* The traced samples of every traced repetition, pooled by key, so
   each tracer (and its span trees) can go as soon as it is read. *)
type traced_pool = (string, Stats.t) Hashtbl.t

let absorb (p : traced_pool) tracer =
  let add key s =
    Hashtbl.replace p key
      (match Hashtbl.find_opt p key with Some a -> Stats.merge a s | None -> s)
  in
  List.iter (fun ((_, phase, _), s) -> add ("phase." ^ phase) s) (Tracer.phase_stats tracer);
  (* One-way wire delay of a service, requests and replies together;
     "raft" folds every Raft node and client service. *)
  List.iter
    (fun (label, s) ->
      match String.index_opt label ':' with
      | _ when String.starts_with ~prefix:"raft-" label -> add "wire.raft" s
      | Some i -> add ("wire." ^ String.sub label 0 i) s
      | None -> add ("wire." ^ label) s)
    (Tracer.wire_stats tracer);
  Option.iter (add "raft.submit") (Tracer.raft_stats tracer);
  Option.iter (add "raft.entry_batch") (List.assoc_opt "raft_entry" (Tracer.batch_stats tracer));
  Option.iter (add "raft.queue") (List.assoc_opt "raft_entry" (Tracer.queue_stats tracer))

let pooled p key = Option.value ~default:(Stats.create ()) (Hashtbl.find_opt p key)

let per_layer (plain : Probe.rep list) (traced : Probe.rep list) (tp : traced_pool) =
  let g name = sum (fun (r : Probe.rep) -> Probe.get r.tally name) plain in
  let gt name = sum (fun (r : Probe.rep) -> Probe.get r.tally name) traced in
  let req = float_of_int (sum_int (fun (r : Probe.rep) -> r.attempted) plain) in
  let writes = float_of_int (sum_int (fun (r : Probe.rep) -> Stats.count r.writes) plain) in
  let inv = g "runtime.invocations" and srv = g "server.requests" in
  let med f = median (List.map f plain) in
  let per_kreq (r : Probe.rep) words = words /. 1e6 /. (float_of_int r.attempted /. 1000.0) in
  let p50 key = pct (pooled tp key) 0.5 in
  let mean key =
    let s = pooled tp key in
    if Stats.count s = 0 then 0.0 else Stats.mean s
  in
  let raft = pooled tp "raft.submit" in
  let n s = Printf.sprintf "n=%d" (Stats.count s) in
  [
    metric "sim.events" "count" (float_of_int (sum_int (fun (r : Probe.rep) -> r.events) plain));
    metric "sim.events_per_cpu_s" "1/s" (med (fun r -> float_of_int r.events /. drive_s r));
    metric "sim.alloc_mwords_per_kreq" "Mword" (med (fun r -> per_kreq r (Probe.drive r).minor));
    metric "sim.promoted_mwords_per_kreq" "Mword"
      (med (fun r -> per_kreq r (Probe.drive r).promoted));
    metric "sim.peak_live_fibers" "count"
      (float_of_int (List.fold_left (fun m (r : Probe.rep) -> max m r.peak_fibers) 0 traced));
    metric "framework.create_cpu_s" "s" (med setup_s);
    metric "registry.register_cpu_s" "s"
      (median (List.map (fun (r : Probe.rep) -> Probe.ref_s r r.register_cpu) traced));
    metric "runtime.spec_share" "ratio" (ratio (g "runtime.speculative") inv);
    metric "runtime.backup_share" "ratio" (ratio (g "runtime.backup") inv);
    metric "runtime.fallback_share" "ratio" (ratio (g "runtime.fallback") inv);
    metric "runtime.local_share" "ratio" (ratio (g "runtime.local") inv);
    metric "runtime.skipped_speculations" "count" (g "runtime.skipped_speculations");
    metric "runtime.lease_refused_share" "ratio"
      (ratio (g "runtime.lease_refused")
         (g "runtime.lease_installed" +. g "runtime.lease_refused"));
    metric "runtime.rpc_timeouts" "count" (g "runtime.rpc_timeouts");
    metric "runtime.fu_batches_per_req" "ratio" (ratio (g "runtime.fu_batches") inv);
  ]
  @ List.map
      (fun p -> metric (Printf.sprintf "runtime.phase.%s.mean_ms" p) "ms" (mean ("phase." ^ p)))
      runtime_phases
  @ [
      metric "cache.hit_rate" "ratio" (ratio (g "cache.hits") (g "cache.hits" +. g "cache.misses"));
      metric "cache.prop_install_share" "ratio"
        (ratio (g "runtime.prop_installed") (g "runtime.prop_records"));
      metric "net.msgs_per_req" "ratio" (ratio (g "net.sent") req);
      metric "net.dropped" "count" (g "net.dropped");
      metric "net.timeouts" "count" (g "net.timeouts");
      metric "net.late_replies" "count" (g "net.late_replies");
    ]
  @ List.map
      (fun l -> metric (Printf.sprintf "net.wire.%s.p50_ms" l) "ms" (p50 ("wire." ^ l)))
      wires
  @ [
      metric "server.validated_share" "ratio" (ratio (g "server.validated") srv);
      metric "server.mismatch_share" "ratio" (ratio (g "server.mismatched") srv);
      metric "server.ro_fast_share" "ratio" (ratio (g "server.ro_fast") srv);
      metric "server.admission_wait_share" "ratio" (ratio (g "server.admission_waits") srv);
      metric "server.persist_flushes_per_req" "ratio" (ratio (g "server.persist_flushes") srv);
      metric "server.lease_blocked_share" "ratio" (ratio (g "server.lease_blocked_writes") writes);
      metric "server.lease_revokes_per_write" "ratio" (ratio (g "server.lease_revokes") writes);
      metric "server.lease_expiry_waits" "count" (g "server.lease_expiry_waits");
      metric "server.reexecutions" "count" (g "server.reexecutions");
      metric "server.followups_discarded" "count" (g "server.followups_discarded");
    ]
  @ List.map (fun s -> metric ("server.stage." ^ s) "count" (gt ("server.stage." ^ s))) stages
  @ List.map
      (fun p -> metric (Printf.sprintf "server.phase.%s.mean_ms" p) "ms" (mean ("phase." ^ p)))
      server_phases
  @ [
      metric "shard.cross_share" "ratio" (ratio (g "server.cross_requests") srv);
      metric "shard.cross_abort_share" "ratio"
        (ratio (g "server.cross_aborts") (g "server.cross_requests"));
      metric "raft.submit_p50_ms" "ms" (pct raft 0.5) ~note:(n raft);
      metric "raft.submit_p99_ms" "ms" (pct raft 0.99) ~note:(n raft);
      metric "raft.entry_batch_mean" "count"
        (let s = pooled tp "raft.entry_batch" in
         if Stats.count s = 0 then 0.0 else Stats.mean s);
      metric "raft.queue_mean_ms" "ms" (mean "raft.queue");
      metric "wasm.instrs_per_req" "count" (ratio (g "wasm.instrs") req);
      metric "chaos.runs" "count" (g "chaos.runs");
      metric "chaos.faults_applied_share" "ratio"
        (ratio (g "chaos.faults_applied") (g "chaos.faults_applied" +. g "chaos.faults_skipped"));
      metric "chaos.oracle_cpu_s" "s" (med (fun r -> Probe.ref_s r r.oracle.cpu));
      metric "lincheck.inconclusive" "count" (g "lincheck.inconclusive");
      metric "lincheck.history_ops_max" "count"
        (float_of_int (List.fold_left (fun m (r : Probe.rep) -> max m r.history_max) 0 plain));
      metric "trace.overhead_frac" "ratio"
        (sum drive_s traced /. sum drive_s plain -. 1.0);
    ]

(* Per-layer metrics printed but kept out of the JSON: they read the
   same on every run of every workload, by construction (the configured
   12 ms invoke overhead, one 6 ms store access per validation,
   zero-duration followup posts and cache repairs, and no workload
   takes the direct-execution path). *)
let constant_by_construction =
  [
    "runtime.phase.invoke_overhead.mean_ms"; "runtime.phase.followup_post.mean_ms";
    "runtime.phase.cache_repair.mean_ms"; "runtime.phase.direct_exec.mean_ms";
    "server.phase.validate.mean_ms"; "net.wire.exec.p50_ms";
  ]

(* The first traced repetition's spans, kept in memory during the run
   and written out at the end: the phase breakdown and the slowest
   request trees. *)
let write_trace ~workload ~seed tracer =
  let dir = Filename.concat "perfbench" "out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (Printf.sprintf "%s-seed%d.trace" workload seed) in
  let oc = open_out path in
  output_string oc (Tracer.phases_json tracer);
  output_string oc "\n";
  let ppf = Format.formatter_of_out_channel oc in
  List.iter (fun s -> Format.fprintf ppf "%a@." Metrics.Span.pp s) (Tracer.slowest ~k:5 tracer);
  close_out oc;
  path

(* --- output ------------------------------------------------------------- *)

let print_metrics title ms =
  Printf.printf "%s\n" title;
  List.iter
    (fun m -> Printf.printf "  %-36s %18.6f %-6s %s\n" m.name m.value m.unit m.note)
    ms

let json ~correct ~attempted ~failed ms =
  let value v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun m -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (value m.value) m.unit)
          ms))

let main (w : Workloads.t) ~seed ~seconds ~trace =
  let k = repetitions w ~seconds in
  Printf.printf "workload %s, seed %d, %d s, trace %b\n%!" w.name seed seconds trace;
  let first_trace = ref Tracer.noop in
  let plain, traced, pairs, tp =
    if trace then begin
      (* Each repetition runs untraced, then traced: the pair gives the
         tracing overhead on identical work and proves the tracer does
         not perturb the simulation. *)
      let tp = Hashtbl.create 32 in
      let runs =
        List.init (max 2 (k / 2)) (fun i ->
            let a = rep w ~seed ~traced:false i in
            let b = rep w ~seed ~traced:true i in
            if i = 0 then first_trace := b.tracer;
            absorb tp b.tracer;
            (a, { b with tracer = Tracer.noop }))
      in
      (List.map fst runs, List.map snd runs, runs, tp)
    end
    else begin
      let plain = List.init k (rep w ~seed ~traced:false) in
      let again = rep w ~seed ~traced:false 0 in
      (plain, [], [ (List.hd plain, again) ], Hashtbl.create 0)
    end
  in
  let errors = check w (plain @ traced) ~pairs in
  let attempted = sum_int (fun (r : Probe.rep) -> r.attempted) plain in
  let failed = sum_int (fun (r : Probe.rep) -> r.failed) plain in
  Printf.printf "%d repetition(s) of %d calls on average\n" (List.length plain)
    (attempted / List.length plain);
  Printf.printf "host speed %.3f reference s per CPU s (median over repetitions)\n"
    (median (List.map (fun (r : Probe.rep) -> r.speed) plain));
  let e2e = end_to_end plain in
  print_metrics "end-to-end" (e2e @ printed_only plain errors);
  let reported =
    if trace then begin
      let layers = per_layer plain traced tp in
      print_metrics "per-layer" layers;
      let layers =
        List.filter (fun m -> not (List.mem m.name constant_by_construction)) layers
      in
      Printf.printf "trace written to %s\n"
        (write_trace ~workload:w.name ~seed !first_trace);
      layers
    end
    else e2e
  in
  List.iter (fun e -> Printf.printf "FAIL %s\n" e) errors;
  let invalid = List.filter (fun m -> not (Float.is_finite m.value)) reported in
  List.iter (fun m -> Printf.printf "FAIL %s is not a number\n" m.name) invalid;
  let correct = errors = [] && invalid = [] in
  print_endline (json ~correct ~attempted ~failed reported);
  if not correct then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed every input derives from");
      ("--seconds", Arg.Set_int seconds, "S time budget; sizes the repetition count");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  match Workloads.find !workload with
  | Some w -> main w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
  | None ->
      prerr_endline
        ("unknown workload '" ^ !workload ^ "'; expected one of "
        ^ String.concat ", " (List.map (fun (w : Workloads.t) -> w.name) Workloads.all));
      exit 2
