open Sim
module Stats = Metrics.Stats
module Table = Metrics.Table
module Tracer = Metrics.Tracer
module Framework = Radical.Framework
module Server = Radical.Server

(* --- synthetic mixed workload ----------------------------------------

   Three key families so conflict-aware admission has something to
   tell apart: payments touch "bal:*" (read-modify-write on two
   accounts), wall posts touch "wall:*" (read-modify-write on one
   wall), wall reads are write-free and ride the ro_fast path. Account
   choice is lightly skewed (theta 0.2) so lock contention exists but
   never dominates the Raft append device we are sweeping. *)

let n_accounts = 500
let n_walls = 50

let funcs = Harness.transfer "pay" ~src:"bal:" ~dst:"bal:" :: Harness.wall_fns

let seed_data =
  List.init n_accounts (fun i -> (Printf.sprintf "bal:a%d" i, Dval.int 100))
  @ List.init n_walls (fun i -> (Printf.sprintf "wall:w%d" i, Dval.Str ""))

(* --- variants --------------------------------------------------------- *)

type variant = {
  v_name : string;
  v_batching : Server.batching;
  v_followups : bool; (* near-user followup coalescing (2 ms) + piggyback *)
}

let variant ?(followups = false) v_name v_batching =
  { v_name; v_batching; v_followups = followups }

(* Modeled durable-append cost per Raft log entry (virtual ms). Without
   it the simulated fsync is free and every unbatched proposal commits
   in one network round — there would be no resource for group commit
   to amortize and the sweep would show nothing. 1 ms caps the
   unbatched device at ~1000 entries/s, which the sweep's top offered
   rate deliberately exceeds. *)
let append_cost = 1.0

let replicated_variants =
  [
    variant "unbatched" { Server.no_batching with append_cost };
    variant "group-commit"
      { Server.no_batching with group_commit = true; append_cost };
    variant "gc+lock-flush"
      {
        Server.no_batching with
        group_commit = true;
        request_flush = true;
        persist_window = 2.0;
        append_cost;
      };
    variant "all-on" ~followups:true { Server.full_batching with append_cost };
  ]

let singleton_variants =
  [
    variant "unbatched" Server.no_batching;
    variant "all-on" ~followups:true Server.full_batching;
  ]

(* --- one sweep cell --------------------------------------------------- *)

type cell = {
  variant : string;
  offered : float; (* requests per virtual second *)
  load : Harness.load;
  batch_mean : float; (* raft_entry commands per entry; nan singleton *)
  queue_p99 : float; (* raft_entry proposal queueing delay; nan singleton *)
}

let run_cell ~seed ~mode ~variant ~rate ~duration =
  let tracer = Tracer.create () in
  let config =
    {
      Framework.default_config with
      server =
        { Server.default_config with mode; batching = variant.v_batching };
      fu_window = (if variant.v_followups then 2.0 else 0.0);
      fu_piggyback = variant.v_followups;
    }
  in
  let load =
    Harness.deploy ~seed ~tracer ~config ~funcs ~data:seed_data
      (fun ~rng ~fw ->
        (match mode with
        | Server.Replicated _ -> Engine.sleep 800.0 (* raft warm-up *)
        | Server.Singleton -> ());
        let zipf = Workload.Zipf.create ~n:n_accounts ~theta:0.2 in
        let mix =
          Workload.Mix.create [ (`Pay, 0.45); (`Post, 0.20); (`Read, 0.35) ]
        in
        Harness.open_loop ~rng ~fw ~rate ~duration (fun wrng ->
            match Workload.Mix.sample mix wrng with
            | `Pay ->
                ( "pay",
                  Harness.transfer_args wrng ~n:n_accounts
                    (Workload.Zipf.sample zipf wrng) )
            | `Post ->
                ( "post",
                  [
                    Dval.Str (Printf.sprintf "w%d" (Rng.int wrng n_walls));
                    Dval.Str "x";
                  ] )
            | `Read ->
                ( "read_wall",
                  [ Dval.Str (Printf.sprintf "w%d" (Rng.int wrng n_walls)) ] )))
  in
  let batch_mean, queue_p99 =
    match
      ( mode,
        List.assoc_opt "raft_entry" (Tracer.batch_stats tracer),
        List.assoc_opt "raft_entry" (Tracer.queue_stats tracer) )
    with
    | Server.Singleton, _, _ -> (nan, nan)
    | Server.Replicated _, Some b, Some q -> (Stats.mean b, Stats.p99 q)
    | Server.Replicated _, Some b, None -> (Stats.mean b, nan)
    | Server.Replicated _, None, _ -> (nan, nan)
  in
  { variant = variant.v_name; offered = rate; load; batch_mean; queue_p99 }

(* --- the sweep -------------------------------------------------------- *)

let load c = c.load
let median = Harness.median load
let p99 = Harness.p99 load
let achieved = Harness.achieved load

let columns =
  [
    Harness.column "variant" (fun c -> c.variant);
    Harness.column "offered" (fun c -> Harness.rate_label c.offered);
    achieved;
    median;
    p99;
    Harness.requests load;
    Harness.errors load;
    Harness.decimal "cmds/entry" (fun c -> c.batch_mean);
    Harness.ms "append q p99" (fun c -> c.queue_p99);
  ]

let measurements_of mode_name =
  Harness.measurements
    ~prefix:(fun c ->
      Printf.sprintf "batch.%s.%s.r%.0f" mode_name c.variant c.offered)
    [ median; p99; achieved ]

let peak cells =
  Harness.peak_sustainable
    (List.map (fun c -> (c.offered, Stats.median c.load.lat)) cells)

let run ?(scale = 1.0) ?(seed = 42) () =
  Harness.heading
    (Printf.sprintf
       "Batching load sweep — group commit / lock-record flush /\n\
        conflict-aware admission / followup coalescing, open-loop Poisson\n\
        load, modeled %.1f ms durable append per Raft log entry"
       append_cost);
  let duration = 250.0 *. scale in
  let repl_rates = [ 100.0; 200.0; 400.0; 800.0; 1600.0 ] in
  let single_rates = [ 200.0; 800.0 ] in
  Printf.printf
    "open-loop window %.0f ms per cell; achieved = completions /\n\
     time-to-last-completion, so a variant that falls behind the\n\
     offered rate shows it directly.\n"
    duration;
  let sweep mode variants rates =
    List.concat_map
      (fun variant ->
        List.map
          (fun rate -> run_cell ~seed ~mode ~variant ~rate ~duration)
          rates)
      variants
  in

  Printf.printf "\n-- singleton server (batching should cost nothing) --\n";
  let single_cells = sweep Server.Singleton singleton_variants single_rates in
  Harness.table columns single_cells;

  Printf.printf "\n-- replicated server (az_rtt 1.5 ms, append %.1f ms) --\n"
    append_cost;
  let repl_cells =
    sweep (Server.Replicated { az_rtt = 1.5 }) replicated_variants repl_rates
  in
  Harness.table columns repl_cells;

  let cells_of name = List.filter (fun c -> c.variant = name) repl_cells in
  let top_rate = List.fold_left Float.max 0.0 repl_rates in
  let top_median name =
    Stats.median
      (List.find (fun c -> c.offered = top_rate) (cells_of name)).load.lat
  in
  let u_top = top_median "unbatched" and g_top = top_median "group-commit" in
  let u_peak = peak (cells_of "unbatched")
  and g_peak = peak (cells_of "group-commit") in
  Printf.printf
    "\npeak sustainable throughput (highest offered rate with median\n\
     within 2x the variant's lowest-rate median):\n";
  List.iter
    (fun v ->
      Printf.printf "  %-14s %.0f req/s\n" v.v_name (peak (cells_of v.v_name)))
    replicated_variants;
  let verdicts =
    Harness.accept ~exp:"batch" "replicated, group commit vs unbatched"
      [
        Harness.check "median" (g_top < u_top)
          "median @ %s lower with group commit: %s vs %s"
          (Harness.rate_label top_rate) (Table.ms g_top) (Table.ms u_top);
        Harness.check "peak" (g_peak > u_peak)
          "peak sustainable higher with group commit: %.0f vs %.0f req/s"
          g_peak u_peak;
      ]
  in
  measurements_of "singleton" single_cells
  @ measurements_of "repl" repl_cells
  @ [
      ("batch.repl.unbatched.peak_rps", u_peak);
      ("batch.repl.group-commit.peak_rps", g_peak);
    ]
  @ verdicts
