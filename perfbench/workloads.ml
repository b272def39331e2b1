(* The four benchmark workloads. Each one runs one repetition into a
   {!Probe.rep}: it builds its deployments, drives load from client
   fibers in virtual time, waits for the load to drain, and judges the
   quiescent state. Every input derives from [rep.seed]. *)

open Sim
open Fdsl.Ast
module Transport = Net.Transport
module Framework = Radical.Framework
module Server = Radical.Server
module Bundle = Experiments.Bundle
module Plan = Chaos.Plan

type t = {
  name : string;
  limit_ms : float;  (** Latency limit that defines goodput. *)
  rep_cpu_s : float;
      (** Rough host seconds of one repetition; with the run's time
          budget it fixes the repetition count. *)
  run : Probe.rep -> unit;
}

(* Closed loop with think time. Each client's first request waits a
   uniform offset in [0, think) so the population does not arrive as
   one herd at t = 0. *)
let closed_loop ~rngs ~iterations ~think step =
  let left = ref (Array.length rngs) in
  let all_done = Ivar.create () in
  Array.iteri
    (fun client rng ->
      Engine.spawn (fun () ->
          Engine.sleep (Rng.float rng think);
          for iter = 0 to iterations - 1 do
            if iter > 0 then Engine.sleep think;
            step ~client ~iter rng
          done;
          decr left;
          if !left = 0 then Ivar.fill all_done ()))
    rngs;
  if !left > 0 then Ivar.read all_done

let key prefix input = Concat [ Str prefix; Input input ]

let site_of sites client = List.nth sites (client mod List.length sites)

(* --- edge-catalog ----------------------------------------------------- *)

(* The paper's evaluation (§5.2): each of social, hotel and forum on a
   singleton server with warm caches, 10 closed-loop clients at each of
   the 5 user sites, 500 ms think time. *)
let edge_catalog =
  let limit_ms = 500.0 and iterations = 70 in
  let run (r : Probe.rep) =
    List.iteri
      (fun i (app : Bundle.app) ->
        let engine = Engine.create ~seed:((r.seed * 4) + i) () in
        Probe.run_engine r ~until:300_000.0 engine (fun () ->
            let rng = Engine.rng () in
            let net =
              Transport.create ~jitter_sigma:0.05 ~tracer:r.tracer
                ~rng:(Rng.split rng) ()
            in
            let data = app.seed (Rng.split rng) in
            let d =
              Probe.deploy r ~engine ~schema:app.schema
                ~config:Framework.default_config ~net ~funcs:app.funcs ~data ()
            in
            let sites = Framework.locations d.fw in
            let gen = app.new_gen () in
            let rngs =
              Array.init (10 * List.length sites) (fun _ -> Rng.split rng)
            in
            r.expected <- r.expected + (Array.length rngs * iterations);
            let t0 = Engine.now () in
            closed_loop ~rngs ~iterations ~think:500.0 (fun ~client ~iter:_ crng ->
                let fn, args = gen crng in
                ignore (Probe.invoke r d ~from:(site_of sites client) fn args));
            r.window_ms <- r.window_ms +. (Engine.now () -. t0);
            Engine.sleep 3000.0;
            Probe.quiesce r d ();
            Probe.collect r d;
            Framework.stop d.fw))
      Bundle.evaluated
  in
  { name = "edge-catalog"; limit_ms; rep_cpu_s = 0.8; run }

(* --- population-leases ------------------------------------------------ *)

(* A read-mostly catalog behind read leases and update propagation,
   visited by a large population of slow clients: 2,000 per site, one
   request every 20 s. Reads and updates pick items by zipf(0.9)
   popularity, so the items readers lease are the ones writers must
   settle. (At 0.99 the hottest item's writers queue behind each
   other's settles, and the p99s swing 11-13% between seeds.) *)
let n_items = 1000

let get_item =
  { fn_name = "get_item"; params = [ "k" ];
    body = Compute (0.5, Read (key "item:" "k")) }

let compare_items =
  {
    fn_name = "compare_items";
    params = [ "a"; "b" ];
    body =
      Compute
        ( 0.5,
          Let
            ( "x", Read (key "item:" "a"),
              Let ( "y", Read (key "item:" "b"),
                    Record_lit [ ("a", Var "x"); ("b", Var "y") ] ) ) );
  }

let update_item =
  {
    fn_name = "update_item";
    params = [ "k"; "v" ];
    body =
      Compute
        ( 1.0,
          Let ( "cur", Read (key "item:" "k"),
                Seq [ Write (key "item:" "k", Input "v"); Var "cur" ] ) );
  }

let population_leases =
  let limit_ms = 500.0 in
  let clients_per_site = 2000 and iterations = 2 and think = 20_000.0 in
  let run (r : Probe.rep) =
    let engine = Engine.create ~seed:r.seed () in
    Probe.run_engine r ~until:1_000_000.0 engine (fun () ->
        let rng = Engine.rng () in
        let net =
          Transport.create ~jitter_sigma:0.05 ~tracer:r.tracer
            ~rng:(Rng.split rng) ()
        in
        let config =
          {
            Framework.default_config with
            server =
              {
                Server.default_config with
                leases = Server.default_leases;
                propagation = Server.default_propagation;
              };
          }
        in
        let data =
          List.init n_items (fun i -> (Printf.sprintf "item:i%d" i, Dval.Str "v0"))
        in
        let d =
          Probe.deploy r ~engine ~config ~net
            ~funcs:[ get_item; compare_items; update_item ] ~data ()
        in
        let sites = Framework.locations d.fw in
        let zipf = Workload.Zipf.create ~n:n_items ~theta:0.9 in
        let mix =
          Workload.Mix.read_heavy
            ~reads:[ `Get; `Get; `Get; `Compare ] ~writes:[ `Update ] ()
        in
        let rngs =
          Array.init (clients_per_site * List.length sites) (fun _ -> Rng.split rng)
        in
        r.expected <- r.expected + (Array.length rngs * iterations);
        let t0 = Engine.now () in
        closed_loop ~rngs ~iterations ~think (fun ~client ~iter crng ->
            let item () =
              Dval.Str (Printf.sprintf "i%d" (Workload.Zipf.sample zipf crng))
            in
            let fn, args =
              match Workload.Mix.sample mix crng with
              | `Get -> ("get_item", [ item () ])
              | `Compare -> ("compare_items", [ item (); item () ])
              | `Update ->
                  ( "update_item",
                    [ item (); Dval.Str (Printf.sprintf "v%d-%d" client iter) ] )
            in
            ignore (Probe.invoke r d ~from:(site_of sites client) fn args));
        r.window_ms <- r.window_ms +. (Engine.now () -. t0);
        Engine.sleep 3000.0;
        Probe.quiesce r d ();
        Probe.collect r d;
        Framework.stop d.fw)
  in
  { name = "population-leases"; limit_ms; rep_cpu_s = 0.8; run }

(* --- replicated-openloop ---------------------------------------------- *)

(* Independent users arriving as a Poisson stream at a fixed rate below
   the knee, against 2 hash shards, each a Raft-replicated lock cluster
   with every batching knob on and a 1 ms durable append per log entry.
   70% of calls write: two-account payments (cross-shard whenever the
   accounts hash apart) and wall posts, both zipf-skewed. *)
let n_accounts = 1000
let n_walls = 100
let initial_balance = 100

let pay =
  {
    fn_name = "pay";
    params = [ "src"; "dst" ];
    body =
      Compute
        ( 1.0,
          Let
            ( "s", Read (key "bal:" "src"),
              Let
                ( "d", Read (key "bal:" "dst"),
                  Seq
                    [
                      Write (key "bal:" "src", Binop (Sub, Var "s", Int 1L));
                      Write (key "bal:" "dst", Binop (Add, Var "d", Int 1L));
                      Var "d";
                    ] ) ) );
  }

let post =
  {
    fn_name = "post";
    params = [ "w" ];
    body =
      Compute
        ( 1.0,
          Let ( "cur", Read (key "wall:" "w"),
                Seq [ Write (key "wall:" "w", Binop (Add, Var "cur", Int 1L));
                      Var "cur" ] ) );
  }

let read_wall =
  { fn_name = "read_wall"; params = [ "w" ];
    body = Compute (0.5, Read (key "wall:" "w")) }

let balance =
  { fn_name = "balance"; params = [ "a" ];
    body = Compute (0.5, Read (key "bal:" "a")) }

let openloop_rate = 300.0 (* requests per virtual second *)
let openloop_ms = 30_000.0

(* Money is conserved: every payment moves one unit between two
   distinct accounts, so the primary's total must equal the seed's. *)
let conserved d () =
  let kv = Framework.primary d.Probe.fw in
  let total = ref 0 in
  for i = 0 to n_accounts - 1 do
    match Store.Kv.peek kv (Printf.sprintf "bal:a%d" i) with
    | Some { value = Dval.Int n; _ } -> total := !total + Int64.to_int n
    | _ -> ()
  done;
  let want = n_accounts * initial_balance in
  if !total = want then []
  else
    [ { Chaos.Oracle.inv = "conservation";
        detail = Printf.sprintf "balances sum to %d, expected %d" !total want } ]

let replicated_openloop =
  let limit_ms = 1000.0 in
  let run (r : Probe.rep) =
    let engine = Engine.create ~seed:r.seed () in
    Probe.run_engine r ~until:300_000.0 engine (fun () ->
        let rng = Engine.rng () in
        let net =
          Transport.create ~jitter_sigma:0.05 ~tracer:r.tracer
            ~rng:(Rng.split rng) ()
        in
        let config =
          {
            Framework.default_config with
            server =
              {
                Server.default_config with
                mode = Server.Replicated { az_rtt = 1.5 };
                batching = { Server.full_batching with append_cost = 1.0 };
              };
            sharding = Some (Shard.Directory.Hash { shards = 2 });
            fu_window = 2.0;
            fu_piggyback = true;
          }
        in
        let data =
          List.init n_accounts (fun i ->
              (Printf.sprintf "bal:a%d" i, Dval.int initial_balance))
          @ List.init n_walls (fun i -> (Printf.sprintf "wall:w%d" i, Dval.int 0))
        in
        let d =
          Probe.deploy r ~engine ~config ~net
            ~funcs:[ pay; post; read_wall; balance ] ~data ()
        in
        let sites = Framework.locations d.fw in
        let accounts = Workload.Zipf.create ~n:n_accounts ~theta:0.9 in
        let walls = Workload.Zipf.create ~n:n_walls ~theta:0.9 in
        let mix =
          Workload.Mix.create
            [ (`Pay, 0.45); (`Post, 0.25); (`Read_wall, 0.2); (`Balance, 0.1) ]
        in
        let arrivals = Rng.split rng and choices = Rng.split rng in
        let account () = Workload.Zipf.sample accounts choices in
        let t0 = Engine.now () in
        let halves = [| Metrics.Stats.create (); Metrics.Stats.create () |] in
        let n =
          Workload.Driver.run_open ~rate:openloop_rate ~duration:openloop_ms
            ~rng:arrivals (fun ~arrival ->
              let arrived = Engine.now () in
              let from = site_of sites arrival in
              let fn, args =
                match Workload.Mix.sample mix choices with
                | `Pay ->
                    let src = account () in
                    let dst = (src + 1 + Rng.int choices (n_accounts - 1)) mod n_accounts in
                    ( "pay",
                      [ Dval.Str (Printf.sprintf "a%d" src);
                        Dval.Str (Printf.sprintf "a%d" dst) ] )
                | `Post ->
                    ( "post",
                      [ Dval.Str (Printf.sprintf "w%d" (Workload.Zipf.sample walls choices)) ] )
                | `Read_wall ->
                    ( "read_wall",
                      [ Dval.Str (Printf.sprintf "w%d" (Workload.Zipf.sample walls choices)) ] )
                | `Balance -> ("balance", [ Dval.Str (Printf.sprintf "a%d" (account ())) ])
              in
              let o = Probe.invoke r d ~from fn args in
              if Result.is_ok o.value && not (Probe.read_only d fn) then
                Metrics.Stats.add
                  halves.(if arrived -. t0 < openloop_ms /. 2.0 then 0 else 1)
                  o.latency)
        in
        r.expected <- r.expected + n;
        r.window_ms <- r.window_ms +. openloop_ms;
        Probe.bump r.tally "openloop.first_half_write_p50_ms"
          (Metrics.Stats.median halves.(0));
        Probe.bump r.tally "openloop.second_half_write_p50_ms"
          (Metrics.Stats.median halves.(1));
        Engine.sleep 3000.0;
        Probe.quiesce r d ~extra:(conserved d) ();
        Probe.collect r d;
        Framework.stop d.fw)
  in
  { name = "replicated-openloop"; limit_ms; rep_cpu_s = 1.2; run }

(* --- chaos-smoke ------------------------------------------------------ *)

(* The chaos campaign as `make check` pays for it: social and forum, on
   a singleton and a Raft-replicated server, batching + propagation +
   leases on, every default fault template. Chaos.Campaign.run_one is
   opaque to timing, so [chaos_run] mirrors it call for call and times
   Framework.create and the oracle from outside. Each client makes 9
   calls instead of the campaign's 3, so the calls span the 5 s fault
   horizon: with 3, most calls were over within 2 s, few met a fault,
   and the p99s swung 10-20% between seeds. *)

(* The campaign's synthetic payment: one external call per unique user,
   feeding the exactly-once effects oracle. *)
let charge_fn =
  {
    fn_name = "chaos_charge";
    params = [ "user" ];
    body =
      Let ( "r", External ("chaos-pay", Input "user"),
            Seq [ Write (Concat [ Str "charge:"; Input "user" ], Var "r"); Var "r" ] );
  }

let chaos_config = { Chaos.Campaign.default_config with requests_per_client = 9 }
let charge_every = chaos_config.charge_every

(* Same budget as the campaign oracle; an exhausted search is counted
   as a violation here, never as a pass. *)
let lincheck_budget = 1_000_000

let chaos_run (r : Probe.rep) ~seed ~(app : Bundle.app) ~replicated plan =
  let cfg = chaos_config in
  let engine = Engine.create ~seed () in
  let issued = ref 0 and paid = ref 0 in
  let stuck_cap = 100_000.0 +. Float.max cfg.horizon (Plan.horizon_of plan) in
  Probe.run_engine r ~until:stuck_cap engine (fun () ->
        let rng = Engine.rng () in
        let net =
          Transport.create ~jitter_sigma:cfg.jitter ~tracer:r.tracer
            ~rng:(Rng.split rng) ~fault_rng:(Rng.split rng) ()
        in
        let data = app.seed (Rng.split rng) in
        let config =
          {
            Framework.default_config with
            locations = cfg.locations;
            server =
              {
                Server.default_config with
                mode =
                  (if replicated then Server.Replicated { az_rtt = 1.5 }
                   else Server.Singleton);
                intent_timeout = cfg.intent_timeout;
                batching = Server.full_batching;
                propagation = Server.default_propagation;
                leases = Server.default_leases;
                tuning = cfg.tuning;
              };
            fu_window = 2.0;
            fu_piggyback = true;
          }
        in
        let d =
          Probe.deploy r ~engine ~config ~net ~funcs:(app.funcs @ [ charge_fn ])
            ~data ()
        in
        Framework.register_external d.fw ~name:"chaos-pay" (fun v ->
            Dval.Record [ ("paid", v) ]);
        Framework.record_history d.fw;
        let nemesis = Chaos.Nemesis.launch { net; fw = d.fw } plan in
        let gen = app.new_gen () in
        let sites = cfg.locations in
        let n_clients = List.length sites * cfg.clients_per_loc in
        let client_rngs = Array.init n_clients (fun _ -> Rng.split rng) in
        let seq = ref 0 in
        r.expected <- r.expected + (n_clients * cfg.requests_per_client);
        let t0 = Engine.now () in
        Workload.Driver.run_clients ~n:n_clients ~iterations:cfg.requests_per_client
          ~think_time:cfg.think_time (fun ~client ~iter ->
            let n = !seq in
            incr seq;
            let fn, args =
              if n mod charge_every = charge_every - 1 then begin
                incr issued;
                (charge_fn.fn_name, [ Dval.Str (Printf.sprintf "u%d-%d" client iter) ])
              end
              else gen client_rngs.(client)
            in
            let o = Probe.invoke r d ~from:(site_of sites client) fn args in
            if fn = charge_fn.fn_name && Result.is_ok o.value then incr paid);
        r.window_ms <- r.window_ms +. (Engine.now () -. t0);
        let target =
          Float.max (Engine.now ()) (Float.max cfg.horizon (Plan.horizon_of plan))
          +. cfg.drain
        in
        Engine.sleep (Float.max 0.0 (target -. Engine.now ()));
        let faults = Chaos.Nemesis.stats nemesis in
        Probe.bump_int r.tally "chaos.faults_applied" faults.applied;
        Probe.bump_int r.tally "chaos.faults_skipped" faults.skipped;
        let effects =
          [ { Chaos.Oracle.e_service = "chaos-pay"; e_issued = !issued;
              e_completed = !paid } ]
        in
        let linearizable () =
          let history = Framework.history d.fw in
          r.history_max <- max r.history_max (List.length history);
          match Lincheck.decide ~init:data ~budget:lincheck_budget history with
          | Lincheck.Linearizable _ -> []
          | Lincheck.Not_linearizable ->
              [ { Chaos.Oracle.inv = "linearizable";
                  detail = "history admits no legal total order" } ]
          | Lincheck.Inconclusive ->
              Probe.bump r.tally "lincheck.inconclusive" 1.0;
              [ { Chaos.Oracle.inv = "linearizable";
                  detail = "inconclusive: search budget exhausted" } ]
        in
        Probe.quiesce r d
          ~extra:(fun () -> Chaos.Oracle.effects_exactly_once d.fw effects @ linearizable ())
          ();
        Probe.collect r d;
        Framework.stop d.fw);
  Probe.bump r.tally "chaos.runs" 1.0

let chaos_smoke =
  let limit_ms = 1000.0 in
  let run (r : Probe.rep) =
    (* Fault plans come from the fixed campaign seeds 1, 2, ... (one per
       repetition, as in a campaign sweep); the workload seed drives
       everything else: seed data, jitter, and the clients' calls. *)
    let plan_seed = (r.seed mod 1000) + 1 in
    List.iter
      (fun (app : Bundle.app) ->
        List.iter
          (fun replicated ->
            List.iteri
              (fun i (t : Plan.template) ->
                if replicated || not t.t_replicated_only then
                  let plan_rng = Rng.create ((plan_seed * 8191) lxor ((i + 1) * 524287)) in
                  let plan =
                    t.t_gen ~rng:plan_rng ~horizon:chaos_config.horizon
                      ~locations:chaos_config.locations
                  in
                  chaos_run r ~seed:r.seed ~app ~replicated plan)
              Plan.default_templates)
          [ false; true ])
      [ Bundle.social; Bundle.forum ]
  in
  { name = "chaos-smoke"; limit_ms; rep_cpu_s = 2.0; run }

let all = [ edge_catalog; replicated_openloop; population_leases; chaos_smoke ]

let find name = List.find_opt (fun w -> w.name = name) all
