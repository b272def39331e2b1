open Sim
module Stats = Metrics.Stats
module Tracer = Metrics.Tracer
module Framework = Radical.Framework
module Server = Radical.Server

(* --- synthetic shardable workload ------------------------------------

   Eight key families "f<i>:bal:*" that the analyzer can pin to shards
   statically: each family has its own read-modify-write payment
   function touching only its prefix, so a prefix directory routes the
   whole function to one shard with no per-request inspection. A
   second set of transfer functions moves value between family i and
   family i+1 — at >= 2 shards those families land on different
   shards, so every transfer takes the cross-shard prepare/commit
   path. The [cross_frac] knob mixes the two. *)

let n_families = 8
let n_accounts = 200 (* per family *)

let fam i = Printf.sprintf "f%d:bal:" i

let funcs =
  List.init n_families (fun i ->
      Harness.transfer (Printf.sprintf "pay%d" i) ~src:(fam i) ~dst:(fam i))
  @ List.init n_families (fun i ->
        Harness.transfer (Printf.sprintf "xfer%d" i) ~src:(fam i)
          ~dst:(fam ((i + 1) mod n_families)))

let seed_data =
  List.concat_map
    (fun i ->
      List.init n_accounts (fun k ->
          (Printf.sprintf "%sa%d" (fam i) k, Dval.int 1000)))
    (List.init n_families Fun.id)

(* Families map round-robin onto shards, so every shard owns
   [n_families / shards] whole families and the pay workload is
   provably disjoint across shards. *)
let strategy shards =
  if shards = 1 then Shard.Directory.Hash { shards = 1 }
  else
    Shard.Directory.Prefix
      {
        shards;
        rules =
          List.init n_families (fun i ->
              (Printf.sprintf "f%d:" i, i mod shards));
        default = 0;
      }

(* Per-shard Raft append cost: each shard runs its own lock cluster, so
   N shards are N independent 1 ms-per-entry append devices — the
   honest resource that sharding actually multiplies. *)
let append_cost = 1.0

(* --- one sweep cell --------------------------------------------------- *)

type cell = {
  shards : int;
  cross_frac : float;
  offered : float;
  load : Harness.load;
  servers : Server.stats list; (* one per shard *)
}

let run_cell ~seed ?tracer ~shards ~cross_frac ~rate ~duration () =
  let config =
    {
      Framework.default_config with
      server =
        {
          Server.default_config with
          mode = Server.Replicated { az_rtt = 1.5 };
          batching = { Server.no_batching with append_cost };
        };
      sharding = Some (strategy shards);
    }
  in
  Harness.deploy ~seed ?tracer ~config ~funcs ~data:seed_data
    (fun ~rng ~fw ->
      Engine.sleep 800.0 (* raft warm-up, one cluster per shard *);
      let load =
        Harness.open_loop ~rng ~fw ~rate ~duration (fun wrng ->
            let family = Rng.int wrng n_families in
            let cross = Rng.float wrng 1.0 < cross_frac in
            let fn =
              Printf.sprintf (if cross then "xfer%d" else "pay%d") family
            in
            let src = Rng.int wrng n_accounts in
            (fn, Harness.transfer_args wrng ~n:n_accounts src))
      in
      let servers = List.map Server.stats (Framework.servers fw) in
      { shards; cross_frac; offered = rate; load; servers })

(* --- the sweep -------------------------------------------------------- *)

let load c = c.load
let median = Harness.median load
let p99 = Harness.p99 load
let achieved = Harness.achieved load

(* A server counter summed over the shards. *)
let summed head get =
  Harness.int head (fun c ->
      List.fold_left (fun acc s -> acc + get s) 0 c.servers)

let columns =
  [
    Harness.int "shards" (fun c -> c.shards);
    Harness.column "cross" (fun c ->
        Printf.sprintf "%.0f%%" (100.0 *. c.cross_frac));
    Harness.column "offered" (fun c -> Harness.rate_label c.offered);
    achieved;
    median;
    p99;
    Harness.requests load;
    Harness.errors load;
    summed "x-reqs" (fun s -> s.cross_requests);
    summed "x-aborts" (fun s -> s.cross_aborts);
    summed "prepares" (fun s -> s.shard_prepares);
  ]

let run ?(scale = 1.0) ?(seed = 42) () =
  Harness.heading
    (Printf.sprintf
       "Shard scaling sweep — prefix-sharded LVI service, analyzer-routed\n\
        single-shard payments vs. cross-shard transfers, open-loop Poisson\n\
        load, one replicated lock cluster per shard (%.1f ms append)"
       append_cost);
  let duration = 250.0 *. scale in
  let rates = [ 200.0; 400.0; 800.0; 1600.0 ] in
  let shard_counts = [ 1; 2; 4 ] in
  let mix_rate = 400.0 in

  Printf.printf
    "\n-- disjoint workload (0%% cross-shard): shard-count scaling --\n";
  let disjoint =
    List.concat_map
      (fun shards ->
        List.map
          (fun rate ->
            run_cell ~seed ~shards ~cross_frac:0.0 ~rate ~duration ())
          rates)
      shard_counts
  in
  Harness.table columns disjoint;
  Printf.printf
    "\npeak sustainable throughput (highest offered rate with median\n\
     within 2x the shard count's lowest-rate median):\n";
  let peak shards =
    Harness.peak_sustainable
      (List.filter_map
         (fun c ->
           if c.shards = shards then Some (c.offered, Stats.median c.load.lat)
           else None)
         disjoint)
  in
  List.iter
    (fun s -> Printf.printf "  %d shard%s  %.0f req/s\n" s
        (if s = 1 then " " else "s") (peak s))
    shard_counts;

  Printf.printf "\n-- cross-shard mix at 4 shards, %s offered --\n"
    (Harness.rate_label mix_rate);
  (* The 0% row is the disjoint sweep's own 4-shard cell at this rate —
     the run is deterministic, so it is reused rather than repeated. *)
  let mixed =
    List.find (fun c -> c.shards = 4 && c.offered = mix_rate) disjoint
    :: List.map
         (fun cross_frac ->
           run_cell ~seed ~shards:4 ~cross_frac ~rate:mix_rate ~duration ())
         [ 0.1; 0.5 ]
  in
  Harness.table columns mixed;

  (* Traced disjoint cell: a statically single-shard function must keep
     the unchanged one-round-trip protocol — no shard_prepare phase may
     appear anywhere in its traces. *)
  let tracer = Tracer.create () in
  ignore
    (run_cell ~seed ~tracer ~shards:4 ~cross_frac:0.0 ~rate:200.0 ~duration ());
  let prepare_phases =
    List.filter
      (fun ((_, phase, _), _) -> phase = "shard_prepare")
      (Tracer.phase_stats tracer)
  in
  Printf.printf "\nper-shard load (traced disjoint cell, 4 shards):\n";
  List.iter
    (fun (shard, (reqs, cross)) ->
      Printf.printf "  shard %d: %d requests, %d cross-shard\n" shard reqs
        cross)
    (Tracer.shard_stats tracer);

  let p1 = peak 1 and p4 = peak 4 in
  let verdicts =
    Harness.accept ~exp:"shard" "shard scaling"
      [
        Harness.check "scaling" (p4 >= 3.0 *. p1)
          "peak 4 shards >= 3x 1 shard: %.0f vs %.0f req/s" p4 p1;
        Harness.check "one_rtt" (prepare_phases = [])
          "single-shard fns one round trip (no shard_prepare phases)";
      ]
  in
  Harness.measurements
    ~prefix:(fun c -> Printf.sprintf "shard.s%d.r%.0f" c.shards c.offered)
    [ median; p99; achieved ] disjoint
  @ Harness.measurements
      ~prefix:(fun c ->
        Printf.sprintf "shard.mix.x%.0f" (100.0 *. c.cross_frac))
      [ median ] mixed
  @ List.map (fun s -> (Printf.sprintf "shard.peak.s%d_rps" s, peak s))
      shard_counts
  @ verdicts
