open Sim
module Stats = Metrics.Stats
module Table = Metrics.Table
module Tracer = Metrics.Tracer
module Framework = Radical.Framework
module Server = Radical.Server
module Runtime = Radical.Runtime

(* --- multi-site shared-key workload ----------------------------------

   A small pool of walls that every site reads and writes. A wall
   posted from site A leaves every other site's cached copy stale;
   without propagation the next read there speculates against the stale
   value, mismatches, and pays the backup path. With propagation the
   committed (value, version) arrives ~one-way-delay later and
   subsequent reads validate. Reads dominate the mix so the freshness
   of the read path, not write throughput, decides the numbers. *)

let n_walls = 12

let funcs = Harness.wall_fns

let seed_data =
  List.init n_walls (fun i -> (Printf.sprintf "wall:w%d" i, Dval.Str ""))

(* --- variants --------------------------------------------------------- *)

type variant = { v_name : string; v_prop : Server.propagation }

let variants =
  let on = Server.default_propagation (* 2 ms window, value installs *) in
  [
    { v_name = "off"; v_prop = Server.no_propagation };
    { v_name = "w=0ms"; v_prop = { on with prop_window = 0.0 } };
    { v_name = "w=2ms"; v_prop = on };
    { v_name = "w=10ms"; v_prop = { on with prop_window = 10.0 } };
    { v_name = "inval"; v_prop = { on with invalidate_only = true } };
  ]

(* --- one cell --------------------------------------------------------- *)

type cell = {
  variant : string;
  load : Harness.load;
  spec_rate : float; (* speculative completions / invocations *)
  backup : int; (* invocations that paid the backup path *)
  srv : Server.stats; (* cache_update messages and records sent *)
  installed : int; (* records that actually changed a cache *)
  batch_mean : float; (* records per message; nan when none sent *)
  lag_p50 : float; (* commit-to-install freshness lag; nan when none *)
}

let run_cell ~seed ~variant ~clients_per_loc ~requests_per_client =
  let tracer = Tracer.create () in
  let config =
    {
      Framework.default_config with
      server = { Server.default_config with propagation = variant.v_prop };
    }
  in
  Harness.deploy ~seed ~tracer ~config ~funcs ~data:seed_data (fun ~rng ~fw ->
      let wrng = Rng.split rng in
      let backup = ref 0 in
      let mix = Workload.Mix.create [ (`Post, 0.30); (`Read, 0.70) ] in
      let load =
        Harness.closed_loop ~rng ~fw ~clients_per_loc ~requests_per_client
          ~think_time:150.0
          ~observe:(fun _ o -> if o.path = Runtime.Backup then incr backup)
          (fun ~client:_ ~iter:_ crng ->
            let wall = Printf.sprintf "w%d" (Rng.int wrng n_walls) in
            match Workload.Mix.sample mix crng with
            | `Post -> ("post", [ Dval.Str wall; Dval.Str "x" ])
            | `Read -> ("read_wall", [ Dval.Str wall ]))
      in
      (* Let the last followups commit and their propagation windows
         flush before reading the counters. *)
      Engine.sleep 500.0;
      let invocations, spec, installed =
        List.fold_left
          (fun (inv, sp, ins) loc ->
            let s = Runtime.stats (Framework.runtime fw loc) in
            (inv + s.invocations, sp + s.speculative, ins + s.prop_installed))
          (0, 0, 0) (Framework.locations fw)
      in
      let batch_mean =
        match List.assoc_opt "propagation" (Tracer.batch_stats tracer) with
        | Some b when Stats.count b > 0 -> Stats.mean b
        | _ -> nan
      in
      let lag_p50 =
        let lags =
          List.filter_map
            (fun (label, st) ->
              if
                String.length label > 9
                && String.sub label 0 9 = "prop_lag:"
                && Stats.count st > 0
              then Some st
              else None)
            (Tracer.queue_stats tracer)
        in
        match lags with
        | [] -> nan
        | first :: rest ->
            Stats.median (List.fold_left Stats.merge first rest)
      in
      {
        variant = variant.v_name;
        load;
        spec_rate =
          (if invocations = 0 then 0.0
           else float_of_int spec /. float_of_int invocations);
        backup = !backup;
        srv = Server.stats (Framework.server fw);
        installed;
        batch_mean;
        lag_p50;
      })

(* --- the experiment --------------------------------------------------- *)

let load c = c.load

let columns =
  [
    Harness.column "propagation" (fun c -> c.variant);
    Harness.ratio ~key:"spec_rate" "spec rate" (fun c -> c.spec_rate);
    Harness.median load;
    Harness.p99 load;
    Harness.int "backup" (fun c -> c.backup);
    Harness.requests load;
    Harness.errors load;
    Harness.int ~key:"prop_batches" "msgs" (fun c -> c.srv.prop_batches);
    Harness.int "recs" (fun c -> c.srv.prop_records);
    Harness.int "installed" (fun c -> c.installed);
    Harness.decimal "recs/msg" (fun c -> c.batch_mean);
    Harness.ms "lag p50" (fun c -> c.lag_p50);
  ]

let run ?(scale = 1.0) ?(seed = 42) () =
  Harness.heading
    "Cache-update propagation — multi-site shared keys, speculation\n\
     success and latency vs. propagation off / Nagle window sweep /\n\
     invalidate-only";
  let clients_per_loc = 2 in
  let requests_per_client =
    Stdlib.max 10 (int_of_float (30.0 *. scale))
  in
  Printf.printf
    "5 sites x %d clients x %d requests, 30%% posts / 70%% reads over %d\n\
     shared walls, 150 ms think time. A post from one site leaves every\n\
     other site's cache stale; propagation decides how the next read\n\
     there fares.\n"
    clients_per_loc requests_per_client n_walls;
  let cells =
    List.map
      (fun variant ->
        run_cell ~seed ~variant ~clients_per_loc ~requests_per_client)
      variants
  in
  Harness.table columns cells;
  let cell name = List.find (fun c -> c.variant = name) cells in
  let off = cell "off" and on = cell "w=2ms" in
  let off_median = Stats.median off.load.lat
  and on_median = Stats.median on.load.lat in
  Printf.printf
    "\nnotes: 'installed' counts records that changed a cache (newer\n\
     version installed, or a stale entry evicted under 'inval'); the\n\
     rest lost the version guard. Invalidate-only trades propagation\n\
     payload for a repair mismatch on each evicted key's next read, so\n\
     its speculation rate stays near 'off' — its win is bandwidth and\n\
     never serving the stale value, not latency.\n";
  let verdicts =
    Harness.accept ~exp:"propagate" "w=2ms vs off"
      [
        Harness.check "spec_rate" (on.spec_rate > off.spec_rate)
          "speculation success higher with propagation: %.1f%% vs %.1f%%"
          (100.0 *. on.spec_rate) (100.0 *. off.spec_rate);
        Harness.check "median" (on_median < off_median)
          "median latency lower with propagation: %s vs %s"
          (Table.ms on_median) (Table.ms off_median);
      ]
  in
  Harness.measurements ~prefix:(fun c -> "propagate." ^ c.variant) columns cells
  @ verdicts
