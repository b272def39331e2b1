open Sim
module Location = Net.Location
module Transport = Net.Transport
module Stats = Metrics.Stats
module Table = Metrics.Table

(* --- Figure 1 -------------------------------------------------------- *)

let fig1 ?(scale = 1.0) ?(seed = 42) () =
  Harness.heading
    "Figure 1 — simple app (~100 ms compute + 1 read): centralized vs\n\
     geo-replicated storage vs inconsistent local (best possible)";
  let app = Bundle.simple in
  let rpc = Harness.scaled scale 40 in
  let run sys = Runner.run ~seed ~requests_per_client:rpc sys app in
  let central = run Runner.Central in
  let geo = run (Runner.Geo [ Location.va; Location.oh; Location.oregon ]) in
  let local = run Runner.Local in
  let med r loc =
    match List.assoc_opt loc (Runner.by_loc r) with
    | Some s -> Stats.median s
    | None -> nan
  in
  let columns =
    [
      Harness.column "loc" Fun.id;
      Harness.ms ~key:"central" "centralized" (med central);
      Harness.ms ~key:"geo" "geo-replicated" (med geo);
      Harness.ms ~key:"local" "local (ideal)" (med local);
    ]
  in
  Harness.table columns Location.user_locations;
  print_newline ();
  Table.print_bars
    (List.concat_map
       (fun loc ->
         let pick tag r =
           match List.assoc_opt loc (Runner.by_loc r) with
           | Some s -> [ (loc ^ " " ^ tag, Stats.median s) ]
           | None -> []
         in
         pick "central" central @ pick "geo    " geo @ pick "ideal  " local)
       Location.user_locations);
  Harness.measurements
    ~prefix:(fun loc -> "fig1." ^ loc)
    columns Location.user_locations

(* --- Table 2 ---------------------------------------------------------- *)

let table2 ?(seed = 42) () =
  Harness.heading
    "Table 2 — storage ping RTT (ms) from each location to the\nprimary in VA";
  let engine = Engine.create ~seed () in
  let meds = ref [] in
  Engine.run engine (fun () ->
      let net = Transport.create ~jitter_sigma:0.05 ~rng:(Rng.split (Engine.rng ())) () in
      let kv = Store.Kv.of_list [ ("ping", Dval.Unit) ] in
      let svc =
        Transport.serve net ~loc:Location.va ~name:"storage-ping" (fun () ->
            ignore (Store.Kv.version_of kv "ping"))
      in
      List.iter
        (fun loc ->
          let s = Stats.create () in
          for _ = 1 to 200 do
            let t0 = Engine.now () in
            Transport.call net ~from:loc svc ();
            Stats.add s (Engine.now () -. t0)
          done;
          meds := (loc, Stats.median s) :: !meds)
        Location.user_locations);
  let paper = [ ("VA", 7.0); ("CA", 74.0); ("IE", 70.0); ("DE", 93.0); ("JP", 146.0) ] in
  Table.print
    ~header:[ "loc"; "measured"; "paper" ]
    ~rows:
      (List.map
         (fun loc ->
           [
             loc;
             Table.ms (List.assoc loc !meds);
             Table.ms (List.assoc loc paper);
           ])
         Location.user_locations);
  List.map (fun loc -> ("table2." ^ loc, List.assoc loc !meds)) Location.user_locations

(* --- Table 1 ---------------------------------------------------------- *)

(* Median execution time of a handler alone — compute plus its storage
   accesses at the deployment's cache latency, as the paper measures the
   WASM execution (§5.5 component 4): run it five times against a local
   store, no network. *)
let measured_exec_ms ?(seed = 42) (info : Apps.Catalog.info) =
  let engine = Engine.create ~seed () in
  let result = ref nan in
  Engine.run engine (fun () ->
      let rng = Engine.rng () in
      let app =
        List.find (fun (a : Bundle.app) -> a.name = info.app) Bundle.evaluated
      in
      let data = app.seed (Rng.split rng) in
      let kv = Store.Kv.of_list ~access_latency:6.0 data in
      let reg = Radical.Registry.create () in
      List.iter
        (fun f -> ignore (Radical.Registry.register reg f))
        app.funcs;
      let entry = Option.get (Radical.Registry.find reg info.fn_name) in
      let gen = app.new_gen () in
      let grng = Rng.split rng in
      let s = Stats.create () in
      (* Draw arguments for this function from the app generator. *)
      let rec args_for n =
        if n > 10000 then failwith ("no args for " ^ info.fn_name)
        else
          let fn, args = gen grng in
          if fn = info.fn_name then args else args_for (n + 1)
      in
      for _ = 1 to 5 do
        let args = args_for 0 in
        let t0 = Engine.now () in
        (* Reads hit the cache; speculative writes are buffered in
           memory, exactly as in the near-user runtime. *)
        ignore
          (Radical.Execute.run entry
             ~read:(fun k ->
               match Store.Kv.get kv k with
               | Some { value; _ } -> Some value
               | None -> None)
             ~write:(fun _ _ -> ())
             args);
        Stats.add s (Engine.now () -. t0)
      done;
      result := Stats.median s);
  !result

let table1 ?(seed = 42) () =
  Harness.heading
    "Table 1 — function catalog: writes, analyzability, measured median\n\
     execution time (vs paper), workload share";
  let reg = Radical.Registry.create () in
  List.iter (fun f -> ignore (Radical.Registry.register reg f)) Apps.Catalog.all_functions;
  let cells =
    List.map
      (fun (info : Apps.Catalog.info) ->
        let entry = Option.get (Radical.Registry.find reg info.fn_name) in
        let analyzable =
          match entry.derived with
          | None -> "No"
          | Some d -> (
              match d.classification with
              | Analyzer.Derive.Dependent _ -> "Yes*"
              | Analyzer.Derive.Static | Analyzer.Derive.Expensive
              | Analyzer.Derive.Manual ->
                  "Yes")
        in
        (info, analyzable, measured_exec_ms ~seed info))
      Apps.Catalog.table1
  in
  let info ((i : Apps.Catalog.info), _, _) = i in
  let analyzable =
    Harness.column
      ~measure:("dependent", fun (_, a, _) -> if a = "Yes*" then 1.0 else 0.0)
      "analyzable"
      (fun (_, a, _) -> a)
  in
  let measured = Harness.ms ~key:"exec_ms" "exec (ms)" (fun (_, _, m) -> m) in
  Harness.table
    [
      Harness.column "function" (fun c -> (info c).fn_name);
      Harness.column "writes" (fun c ->
          if (info c).writes then "Yes" else "No");
      analyzable;
      measured;
      Harness.ms "paper" (fun c -> (info c).exec_ms);
      Harness.column "workload%" (fun c ->
          Printf.sprintf "%.1f%%" (info c).workload_pct);
    ]
    cells;
  Printf.printf
    "\n(27 functions across 5 apps registered; %d analyzable. * = needed\n\
     the dependent-read optimization.)\n"
    (Radical.Registry.analyzable_count reg);
  Harness.measurements
    ~prefix:(fun c -> "table1." ^ (info c).fn_name)
    [ measured; analyzable ] cells

(* --- Figures 4, 5, 6 --------------------------------------------------- *)

type eval_data = (Bundle.app * (string * Runner.result) list) list

let collect_eval ?(scale = 1.0) ?(seed = 42) () =
  let rpc = Harness.scaled scale 40 in
  List.map
    (fun (app : Bundle.app) ->
      let run sys = Runner.run ~seed ~requests_per_client:rpc sys app in
      ( app,
        [
          ("baseline", run Runner.Central);
          ("radical", run Runner.Radical);
          ("ideal", run Runner.Local);
        ] ))
    Bundle.evaluated

(* One row of Figures 4-6: baseline vs Radical latency, plus whatever
   else the figure shows. *)
type 'a versus = {
  label : string;
  base : Stats.t;
  radical : Stats.t;
  extra : 'a;
}

let versus_columns head =
  let ms ?key h stat get = Harness.ms ?key h (fun c -> stat (get c)) in
  [
    Harness.column head (fun c -> c.label);
    ms ~key:"baseline_median" "base med" Stats.median (fun c -> c.base);
    ms "base p99" Stats.p99 (fun c -> c.base);
    ms ~key:"radical_median" "radical med" Stats.median (fun c -> c.radical);
    ms "radical p99" Stats.p99 (fun c -> c.radical);
  ]

let fig4 data =
  Harness.heading
    "Figure 4 — end-to-end latency per application: primary-datacenter\n\
     baseline vs Radical (red line = inconsistent local ideal)";
  let cells =
    List.map
      (fun ((app : Bundle.app), runs) ->
        let get tag = List.assoc tag runs in
        {
          label = app.name;
          base = Runner.overall (get "baseline");
          radical = Runner.overall (get "radical");
          extra =
            ( Runner.overall (get "ideal"),
              Option.value ~default:nan (get "radical").validation_rate );
        })
      data
  in
  let med = Stats.median in
  let ideal c = med (fst c.extra) in
  let gain c = med c.base -. med c.radical in
  let columns =
    versus_columns "app"
    @ [
        Harness.ms ~key:"ideal_median" "ideal med" ideal;
        Harness.ratio ~key:"improvement" "improve" (fun c ->
            gain c /. med c.base);
        Harness.ratio ~key:"of_max" "of max" (fun c ->
            gain c /. (med c.base -. ideal c));
        Harness.ratio ~key:"validation_rate" "val rate" (fun c -> snd c.extra);
      ]
  in
  Harness.table columns cells;
  print_newline ();
  Table.print_bars
    (List.concat_map
       (fun c ->
         [
           (c.label ^ " baseline", med c.base);
           (c.label ^ " radical ", med c.radical);
           (c.label ^ " ideal   ", ideal c);
         ])
       cells);
  Printf.printf
    "\n(paper: improvements 28-35%%, 84-89%% of the maximum possible,\n\
     ~95%% validation success)\n";
  Harness.measurements ~prefix:(fun c -> "fig4." ^ c.label) columns cells

let fig5 data =
  Harness.heading
    "Figure 5 — end-to-end latency per deployment location (red line =\n\
     inconsistent local ideal)";
  let columns =
    versus_columns "loc"
    @ [ Harness.ms ~key:"ideal_median" "ideal" (fun c -> Stats.median c.extra) ]
  in
  List.concat_map
    (fun ((app : Bundle.app), runs) ->
      Printf.printf "\n[%s]\n" app.name;
      let locs tag = Runner.by_loc (List.assoc tag runs) in
      let b = locs "baseline" and r = locs "radical" and i = locs "ideal" in
      let cells =
        List.filter_map
          (fun loc ->
            match
              (List.assoc_opt loc b, List.assoc_opt loc r, List.assoc_opt loc i)
            with
            | Some base, Some radical, Some extra ->
                Some { label = loc; base; radical; extra }
            | _ -> None)
          Location.user_locations
      in
      Harness.table columns cells;
      Harness.measurements
        ~prefix:(fun c -> Printf.sprintf "fig5.%s.%s" app.name c.label)
        columns cells)
    data

let fig6 data =
  Harness.heading
    "Figure 6 — per-function end-to-end latency, baseline vs Radical";
  let columns =
    versus_columns "function"
    @ [
        Harness.column "exec" (fun c ->
            match Apps.Catalog.find c.label with
            | Some i -> Table.ms i.exec_ms
            | None -> "-");
      ]
  in
  List.concat_map
    (fun ((app : Bundle.app), runs) ->
      Printf.printf "\n[%s]\n" app.name;
      let r = Runner.by_fn (List.assoc "radical" runs) in
      let cells =
        List.filter_map
          (fun (fn, base) ->
            Option.map
              (fun radical -> { label = fn; base; radical; extra = () })
              (List.assoc_opt fn r))
          (Runner.by_fn (List.assoc "baseline" runs))
      in
      Harness.table columns cells;
      Harness.measurements ~prefix:(fun c -> "fig6." ^ c.label) columns cells)
    data

(* --- §5.6 replication --------------------------------------------------- *)

let write_heavy_fn n_keys =
  let open Fdsl.Ast in
  {
    fn_name = Printf.sprintf "write%d" n_keys;
    params = [ "tag" ];
    body =
      Compute
        ( 1.0,
          Seq
            (List.init n_keys (fun i ->
                 Write
                   ( Concat [ Str (Printf.sprintf "w%d-" i); Input "tag" ],
                     Input "tag" ))) );
  }

let replication ?(seed = 42) () =
  Harness.heading
    "§5.6 — replicated LVI server: added request latency vs number of\n\
     locks (paper model: 3 + 2.3 * L ms)";
  let lock_counts = [ 1; 2; 4; 8 ] in
  let funcs = List.map write_heavy_fn lock_counts in
  let measure mode l =
    let engine = Engine.create ~seed () in
    let out = ref nan in
    Engine.run engine (fun () ->
        let net = Transport.create ~jitter_sigma:0.0 ~rng:(Rng.split (Engine.rng ())) () in
        let config =
          {
            Radical.Framework.default_config with
            locations = [ Location.ca ];
            server = { Radical.Server.default_config with mode };
          }
        in
        let fw = Radical.Framework.create ~config ~net ~funcs ~data:[] () in
        Engine.sleep 1000.0 (* raft warm-up *);
        let s = Stats.create () in
        for i = 1 to 9 do
          let o =
            Radical.Framework.invoke fw ~from:Location.ca
              (Printf.sprintf "write%d" l)
              [ Dval.Str (Printf.sprintf "t%d" i) ]
          in
          Stats.add s o.latency;
          Engine.sleep 500.0
        done;
        out := Stats.median s;
        Radical.Framework.stop fw);
    !out
  in
  let cells =
    List.map
      (fun l ->
        let single = measure Radical.Server.Singleton l in
        (l, single, measure (Radical.Server.Replicated { az_rtt = 1.5 }) l))
      lock_counts
  in
  let columns =
    [
      Harness.int "locks" (fun (l, _, _) -> l);
      Harness.ms "singleton" (fun (_, s, _) -> s);
      Harness.ms "replicated" (fun (_, _, r) -> r);
      Harness.ms ~key:"added_ms" "added" (fun (_, s, r) -> r -. s);
      Harness.ms "paper model" (fun (l, _, _) ->
          3.0 +. (2.3 *. float_of_int l));
    ]
  in
  Harness.table columns cells;
  Harness.measurements
    ~prefix:(fun (l, _, _) -> Printf.sprintf "repl.L%d" l)
    columns cells

(* --- §5.7 cost ---------------------------------------------------------- *)

let cost () =
  Harness.heading "§5.7 — monthly cost, baseline vs Radical";
  let p = Cost.defaults in
  Printf.printf "infrastructure: baseline $%.2f, Radical $%.2f (%.0f%% increase)\n\n"
    (Cost.infrastructure_baseline p)
    (Cost.infrastructure_radical p)
    ((Cost.infrastructure_radical p /. Cost.infrastructure_baseline p -. 1.0)
    *. 100.0);
  let volumes = [ 1e6; 1e7; 1e8 ] in
  let cells =
    List.map (fun v -> (v, Cost.at_scale p ~invocations_per_month:v)) volumes
  in
  let dollars key get =
    Harness.column ~measure:(key, get) key (fun c ->
        Printf.sprintf "$%.2f" (get c))
  in
  let columns =
    [
      Harness.column "invocations/month" (fun (v, _) ->
          Printf.sprintf "%.0fM" (v /. 1e6));
      dollars "baseline" (fun (_, b) -> b.Cost.baseline_total);
      dollars "radical" (fun (_, b) -> b.Cost.radical_total);
      Harness.column "ratio" (fun (_, b) ->
          Printf.sprintf "%.2fx" b.Cost.overhead_ratio);
    ]
  in
  Harness.table columns cells;
  Harness.measurements
    ~prefix:(fun (v, _) -> Printf.sprintf "cost.%.0fM" (v /. 1e6))
    columns cells

(* --- §5.5 sensitivity: execution time vs benefit ------------------------ *)

let sensitivity ?(seed = 42) () =
  Harness.heading
    "§5.5 — sensitivity to function execution time: Radical vs baseline\n\
     for a synthetic handler (1 read + T ms compute), clients in CA";
  let open Fdsl.Ast in
  let exec_times = [ 5.0; 10.0; 20.0; 50.0; 100.0; 200.0; 400.0 ] in
  let fn_of t =
    {
      fn_name = Printf.sprintf "work%.0f" t;
      params = [ "k" ];
      body = Compute (t, Read (Input "k"));
    }
  in
  let app t : Bundle.app =
    {
      name = "sweep";
      funcs = [ fn_of t ];
      schema = [];
      seed = (fun _ -> [ ("hot", Dval.Str "v") ]);
      new_gen =
        (fun () -> fun _ -> (Printf.sprintf "work%.0f" t, [ Dval.Str "hot" ]));
    }
  in
  let cells =
    List.map
      (fun t ->
        let run sys =
          Runner.median_of
            (Runner.run ~seed ~locations:[ Location.ca ] ~clients_per_loc:4
               ~requests_per_client:25 ~jitter:0.0 sys (app t))
        in
        let radical = run Runner.Radical in
        (t, run Runner.Central, radical))
      exec_times
  in
  let columns =
    [
      Harness.column "exec (ms)" (fun (t, _, _) -> Printf.sprintf "%.0f" t);
      Harness.ms "baseline" (fun (_, c, _) -> c);
      Harness.ms "radical" (fun (_, _, r) -> r);
      Harness.ms ~key:"benefit" "benefit" (fun (_, c, r) -> c -. r);
    ]
  in
  Harness.table columns cells;
  Printf.printf
    "\n(paper: functions above ~20 ms benefit; the benefit saturates at\n\
     lat_nu<->ns once execution fully hides the LVI request)\n";
  Harness.measurements
    ~prefix:(fun (t, _, _) -> Printf.sprintf "sensitivity.T%.0f" t)
    columns cells

(* --- §3.2 gradual cache bootstrap ----------------------------------------- *)

let bootstrap ?(seed = 42) () =
  Harness.heading
    "§3.2 — gradual cache bootstrap: validation success over time when\n\
     every near-user cache starts empty (each miss repairs the cache)";
  let app = Bundle.social in
  let engine = Engine.create ~seed () in
  let buckets = Hashtbl.create 16 in
  let bucket_size = 200 in
  let n_requests = 2400 in
  let done_count = ref 0 in
  Engine.run engine (fun () ->
      let rng = Engine.rng () in
      let net = Transport.create ~jitter_sigma:0.05 ~rng:(Rng.split rng) () in
      let data = app.seed (Rng.split rng) in
      let config = { Radical.Framework.default_config with warm_caches = false } in
      let fw = Radical.Framework.create ~config ~net ~funcs:app.funcs ~data () in
      let gen = app.new_gen () in
      let rngs = Array.init 50 (fun _ -> Rng.split rng) in
      Workload.Driver.run_clients ~n:50 ~iterations:(n_requests / 50)
        ~think_time:100.0 (fun ~client ~iter:_ ->
          let from = List.nth Location.user_locations (client mod 5) in
          let fn, args = gen rngs.(client) in
          let o = Radical.Framework.invoke fw ~from fn args in
          let idx = !done_count / bucket_size in
          incr done_count;
          let ok, total =
            Option.value ~default:(0, 0) (Hashtbl.find_opt buckets idx)
          in
          let ok = if o.path = Radical.Runtime.Speculative then ok + 1 else ok in
          Hashtbl.replace buckets idx (ok, total + 1));
      Radical.Framework.stop fw);
  let indices =
    List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) buckets [])
  in
  let ms =
    List.map
      (fun idx ->
        let ok, total = Hashtbl.find buckets idx in
        let rate = float_of_int ok /. float_of_int (max 1 total) in
        (Printf.sprintf "bootstrap.bucket%d" idx, rate))
      indices
  in
  Table.print
    ~header:[ "requests"; "speculative-path rate" ]
    ~rows:
      (List.map
         (fun idx ->
           let ok, total = Hashtbl.find buckets idx in
           [
             Printf.sprintf "%d-%d" (idx * bucket_size)
               ((idx * bucket_size) + total);
             Table.pct (float_of_int ok /. float_of_int (max 1 total));
           ])
         indices);
  Printf.printf
    "\n(cold caches are repaired by mismatch responses: the speculative\n\
     path climbs from ~0%% toward the warm-cache rate — §3.2's gradual\n\
     bootstrap, no durability required)\n";
  ms

(* --- Skew sweep (§5.3: high skew stresses the locking scheme) -------- *)

let skew ?(seed = 42) () =
  Harness.heading
    "§5.3 — workload skew vs validation success: the social app with\n\
     the user-selection zipf parameter swept (paper runs at 0.99)";
  let thetas = [ 0.0; 0.5; 0.9; 0.99; 1.2 ] in
  let cells =
    List.map
      (fun theta ->
        let app : Bundle.app =
          {
            Bundle.social with
            name = Printf.sprintf "social-z%.2f" theta;
            new_gen =
              (fun () ->
                let g = Apps.Social.gen ~zipf_theta:theta () in
                fun rng -> Apps.Social.next g rng);
          }
        in
        (theta, Runner.run ~seed ~requests_per_client:40 Runner.Radical app))
      thetas
  in
  let columns =
    [
      Harness.column "zipf theta" (fun (theta, _) ->
          Printf.sprintf "%.2f" theta);
      Harness.ms "radical med" (fun (_, r) -> Runner.median_of r);
      Harness.ms "radical p99" (fun (_, r) -> Runner.p99_of r);
      Harness.ratio ~key:"validation" "val rate" (fun (_, r) ->
          Option.value ~default:nan r.Runner.validation_rate);
    ]
  in
  Harness.table columns cells;
  Printf.printf
    "\n(higher skew concentrates writes on hot users' timelines,\n\
     increasing cross-site invalidations and lock contention; the\n\
     evaluation's 0.99 still validates ~95%%)\n";
  Harness.measurements
    ~prefix:(fun (theta, _) -> Printf.sprintf "skew.z%.2f" theta)
    columns cells

(* --- Throughput parity (§5.3's footnote) --------------------------------- *)

let throughput ?(seed = 42) () =
  Harness.heading
    "§5.3 — throughput parity: completed requests in a fixed window,\n\
     Radical vs primary-datacenter baseline (paper: identical; the only\n\
     added component is the LVI server)";
  let app = Bundle.social in
  let window = 20_000.0 (* virtual ms *) in
  let completed sys =
    let engine = Engine.create ~seed () in
    let count = ref 0 in
    Engine.run engine (fun () ->
        let rng = Engine.rng () in
        let net =
          Transport.create ~jitter_sigma:0.05 ~rng:(Rng.split rng) ()
        in
        let data = app.seed (Rng.split rng) in
        let gen = app.new_gen () in
        let invoke, finish =
          match sys with
          | `Radical ->
              let fw =
                Radical.Framework.create ~net ~funcs:app.funcs ~data ()
              in
              ( (fun ~from fn args ->
                  ignore (Radical.Framework.invoke fw ~from fn args)),
                fun () -> Radical.Framework.stop fw )
          | `Central ->
              let b =
                Radical.Baselines.centralized ~net ~funcs:app.funcs ~data ()
              in
              ( (fun ~from fn args ->
                  ignore (Radical.Baselines.invoke b ~from fn args)),
                fun () -> () )
        in
        let rngs = Array.init 50 (fun _ -> Rng.split rng) in
        Workload.Driver.run_for ~n:50 ~duration:window ~think_time:50.0
          (fun ~client ~iter:_ ->
            let from = List.nth Location.user_locations (client mod 5) in
            let fn, args = gen rngs.(client) in
            invoke ~from fn args;
            incr count);
        finish ());
    !count
  in
  let r = completed `Radical in
  let c = completed `Central in
  let ratio = float_of_int r /. float_of_int c in
  Table.print
    ~header:[ "system"; "requests / 20 s window"; "throughput ratio" ]
    ~rows:
      [
        [ "baseline (central)"; string_of_int c; "1.00" ];
        [ "radical"; string_of_int r; Printf.sprintf "%.2f" ratio ];
      ];
  Printf.printf
    "\n(closed loop, so Radical's lower per-request latency yields a\n\
     slightly higher completion count; the LVI server is not a\n\
     bottleneck at this load)\n";
  [ ("throughput.ratio", ratio) ]

(* --- Per-phase latency breakdown (tracing) ------------------------------- *)

let phases ?(scale = 1.0) ?(seed = 42) () =
  Harness.heading
    "Per-phase latency breakdown — the social app under Radical with\n\
     request tracing enabled: where each request path spends its time";
  let tracer = Metrics.Tracer.create () in
  let rpc = Harness.scaled scale 25 in
  let r =
    Runner.run ~seed ~requests_per_client:rpc ~tracer Runner.Radical
      Bundle.social
  in
  let per_path =
    List.fold_left
      (fun acc ((_, phase, path), s) ->
        let key = (path, phase) in
        let merged =
          match List.assoc_opt key acc with
          | Some prev -> Stats.merge prev s
          | None -> s
        in
        (key, merged) :: List.remove_assoc key acc)
      []
      (Metrics.Tracer.phase_stats tracer)
  in
  let cells =
    List.concat_map
      (fun path ->
        let here =
          List.filter_map
            (fun ((p, phase), s) -> if p = path then Some (phase, s) else None)
            per_path
        in
        let total = List.assoc_opt "total" here in
        List.map
          (fun (phase, s) -> (path, phase, s, total))
          (List.sort (fun (a, _) (b, _) -> compare a b) here))
      [ "Speculative"; "Backup"; "Fallback" ]
  in
  let stat ?key head f = Harness.ms ?key head (fun (_, _, s, _) -> f s) in
  let columns =
    [
      Harness.column "path" (fun (path, _, _, _) -> path);
      Harness.column "phase" (fun (_, phase, _, _) -> phase);
      Harness.int "count" (fun (_, _, s, _) -> Stats.count s);
      stat ~key:"mean_ms" "mean" Stats.mean;
      stat "median" Stats.median;
      stat "p99" Stats.p99;
      Harness.column "of total" (fun (_, phase, s, total) ->
          match total with
          | Some t when phase <> "total" && Stats.mean t > 0.0 ->
              Table.pct (Stats.mean s /. Stats.mean t)
          | _ -> "-");
    ]
  in
  (* Means first: a median sorts the samples in place, and the sum then
     rounds differently. *)
  let ms =
    Harness.measurements
      ~prefix:(fun (path, phase, _, _) ->
        Printf.sprintf "phases.%s.%s" path phase)
      columns cells
  in
  Harness.table columns cells;
  Printf.printf "\n%s\n" (Metrics.Tracer.phases_json tracer);
  Printf.printf
    "\n(the Speculative path's lvi_rtt dominates but overlaps the\n\
     speculate phase; Backup requests additionally pay backup_exec and\n\
     cache_repair; %d traces collected, %d samples)\n"
    (Metrics.Tracer.trace_count tracer)
    (List.length r.samples);
  ("phases.traces", float_of_int (Metrics.Tracer.trace_count tracer)) :: ms

(* --- Ablations ----------------------------------------------------------- *)

let ablation ?(scale = 1.0) ?(seed = 42) () =
  Harness.heading
    "Ablation — why a single overlapped LVI request: Radical vs\n\
     no-overlap vs per-access coordination (naive edge) vs baselines";
  let app = Bundle.social in
  let rpc = Harness.scaled scale 25 in
  let run sys = Runner.run ~seed ~requests_per_client:rpc sys app in
  let no_overlap =
    { Radical.Framework.default_config with overlap = false }
  in
  let fast_cache =
    { Radical.Framework.default_config with cache_latency = 0.5 }
  in
  let systems =
    [
      ("radical (overlap)", Runner.Radical);
      ("radical (no overlap)", Runner.Radical_with no_overlap);
      ("radical (in-memory cache)", Runner.Radical_with fast_cache);
      ("naive edge (per-op RTT)", Runner.Naive_edge);
      ("validate-per-read", Runner.Validate_per_read);
      ("baseline (central)", Runner.Central);
      ("ideal (local)", Runner.Local);
    ]
  in
  let rows, ms =
    List.fold_left
      (fun (rows, ms) (name, sys) ->
        let r = run sys in
        let med = Runner.median_of r in
        ( rows @ [ [ name; Table.ms med; Table.ms (Runner.p99_of r) ] ],
          ms @ [ ("ablation." ^ name, med) ] ))
      ([], []) systems
  in
  Table.print ~header:[ "system"; "median"; "p99" ] ~rows;
  ms
