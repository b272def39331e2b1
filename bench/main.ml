(* Benchmark front-end: runs the targets of Experiments.Targets (every
   table and figure of the paper's evaluation and the load sweeps, see
   DESIGN.md's experiment index), the chaos campaign, and Bechamel
   microbenchmarks of the core primitives.

     dune exec bench/main.exe                 # everything at paper volume
     dune exec bench/main.exe -- fig4         # one experiment
     dune exec bench/main.exe -- --scale 1 fig4   # quick 2k-request run *)

let micro () =
  Experiments.Harness.heading
    "Microbenchmarks (Bechamel) — core primitive costs";
  let open Bechamel in
  let open Toolkit in
  (* A VM workload: sum 1..1000 through the interpreter. *)
  let sum_module =
    let open Wasm.Instr in
    Wasm.Wmodule.create
      ~funcs:
        [
          {
            Wasm.Wmodule.fn_name = "sum";
            n_params = 0;
            n_locals = 2;
            body =
              [
                Loop
                  [
                    Local_get 0; I64_const 1L; I64_binop Add; Local_set 0;
                    Local_get 1; Local_get 0; I64_binop Add; Local_set 1;
                    Local_get 0; I64_const 1000L; I64_binop Lt_s; Br_if 0;
                  ];
                Local_get 1;
              ];
          };
        ]
      ~imports:[]
  in
  let pure_host = Wasm.Host.pure () in
  let timeline_fn =
    List.find
      (fun (f : Fdsl.Ast.func) -> f.fn_name = "social-timeline")
      Apps.Catalog.all_functions
  in
  let derived =
    match Analyzer.Derive.derive timeline_fn with
    | Ok d -> d
    | Error _ -> assert false
  in
  let zipf = Workload.Zipf.create ~n:10000 ~theta:0.99 in
  let rng = Sim.Rng.create 1 in
  let lin_history =
    List.init 8 (fun i ->
        {
          Lincheck.op_id = string_of_int i;
          start = float_of_int i;
          finish = float_of_int i +. 0.5;
          reads = [ ("x", if i = 0 then Dval.Unit else Dval.int i) ];
          writes = [ ("x", Dval.int (i + 1)) ];
        })
  in
  (* Setup cost on its own: a warm deployment of the social app over its
     seed, as every run of the experiments and the chaos campaign pays. *)
  let social = Experiments.Bundle.social in
  let social_data = social.seed (Sim.Rng.create 1) in
  let tests =
    Test.make_grouped ~name:"micro" ~fmt:"%s/%s"
      [
        Test.make ~name:"vm-interp-sum1000"
          (Staged.stage (fun () ->
               ignore (Wasm.Interp.run sum_module ~host:pure_host ~entry:"sum" [])));
        (* The same workload wrapped in disabled-tracer spans, exactly as
           Runtime.invoke instruments it. Comparing against the plain run
           above checks that tracing off costs nothing (≤2% target). *)
        Test.make ~name:"vm-interp-sum1000-noop-trace"
          (Staged.stage (fun () ->
               let tracer = Metrics.Tracer.noop in
               let root = Metrics.Tracer.root tracer "sum" in
               let r =
                 Metrics.Tracer.with_phase tracer ~parent:root "exec" (fun () ->
                     Wasm.Interp.run sum_module ~host:pure_host ~entry:"sum" [])
               in
               Metrics.Tracer.stop root;
               ignore r));
        Test.make ~name:"fdsl-compile-timeline"
          (Staged.stage (fun () -> ignore (Fdsl.Compile.compile timeline_fn)));
        Test.make ~name:"analyzer-derive-timeline"
          (Staged.stage (fun () -> ignore (Analyzer.Derive.derive timeline_fn)));
        Test.make ~name:"analyzer-predict-timeline"
          (Staged.stage (fun () ->
               ignore
                 (Analyzer.Derive.predict derived
                    ~read:(fun _ -> Dval.List [ Dval.Str "a" ])
                    [ Dval.Str "u1" ])));
        Test.make ~name:"zipf-sample"
          (Staged.stage (fun () -> ignore (Workload.Zipf.sample zipf rng)));
        Test.make ~name:"rng-bits64"
          (Staged.stage (fun () -> ignore (Sim.Rng.bits64 rng)));
        Test.make ~name:"lincheck-8ops"
          (Staged.stage (fun () -> ignore (Lincheck.check lin_history)));
        Test.make ~name:"framework-create-social"
          (Staged.stage (fun () ->
               Sim.Engine.run (Sim.Engine.create ~seed:1 ()) (fun () ->
                   let net =
                     Net.Transport.create ~rng:(Sim.Rng.split (Sim.Engine.rng ())) ()
                   in
                   Radical.Framework.stop
                     (Radical.Framework.create ~net ~funcs:social.funcs
                        ~data:social_data ()))));
        Test.make ~name:"pqueue-push-pop-64"
          (Staged.stage (fun () ->
               let q = Sim.Pqueue.create ~cmp:Int.compare in
               for i = 0 to 63 do
                 Sim.Pqueue.push q (i * 7919 mod 64)
               done;
               while not (Sim.Pqueue.is_empty q) do
                 ignore (Sim.Pqueue.pop q)
               done));
      ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results =
    Analyze.merge ols instances
      (List.map (fun instance -> Analyze.all ols instance raw) instances)
  in
  Hashtbl.iter
    (fun _measure tbl ->
      let rows = ref [] in
      Hashtbl.iter
        (fun name ols_result ->
          let time_ns =
            match Analyze.OLS.estimates ols_result with
            | Some (t :: _) -> Printf.sprintf "%.0f ns" t
            | _ -> "n/a"
          in
          rows := [ name; time_ns ] :: !rows)
        tbl;
      Metrics.Table.print ~header:[ "benchmark"; "time/run" ]
        ~rows:(List.sort compare !rows))
    results

(* Flags, set by the command line below. *)
let scale = ref 5.0 (* reproduces the paper's 10,000 requests per deployment *)
let seeds = ref 50
let batching = ref false
let propagation = ref false
let leases = ref false
let json = ref false
let shards = ref 1

let targets =
  Experiments.Targets.all ()
  @ [
      Experiments.Targets.v "chaos"
        "fault-plan campaign over {social,forum} x {singleton,replicated}"
        (fun _ ->
          let violations =
            Experiments.Chaos_exp.run ~seeds:!seeds ~batching:!batching
              ~propagation:!propagation ~leases:!leases ~shards:!shards ()
          in
          if violations > 0 then exit 2;
          []);
      Experiments.Targets.v "micro"
        "Bechamel microbenchmarks of core primitives" (fun _ ->
          micro ();
          []);
    ]

let usage () =
  print_string
    ("usage: main.exe [--scale F] [--seeds N] [--shards N] [--batching]\n\
     \       [--propagation] [--leases] [--json] [TARGET...]\n\
      (no target: all, then micro)\n"
    ^ Experiments.Targets.usage targets
    ^ "  --scale F      multiply request volume (default 5, the paper's 10k)\n\
      \  --json         also write each experiment's measurements as\n\
      \                 BENCH_<target>.json\n\
      \  chaos only: --seeds N per grid cell (default 50); --batching,\n\
      \  --propagation, --leases and --shards N turn the matching feature on\n\
      \  in every cell, and its chaos template attacks it.\n\
      exit status: 1 when an acceptance verdict fails, 2 on chaos\n\
      violations.\n");
  exit 1

let () =
  let switches =
    [
      ("--batching", batching);
      ("--propagation", propagation);
      ("--leases", leases);
      ("--json", json);
    ]
  in
  let positive r of_string zero v =
    match of_string v with Some x when x > zero -> r := x | _ -> usage ()
  in
  let rec parse = function
    | [] -> []
    | s :: rest when List.mem_assoc s switches ->
        List.assoc s switches := true;
        parse rest
    | "--scale" :: v :: rest ->
        positive scale float_of_string_opt 0.0 v;
        parse rest
    | "--seeds" :: v :: rest ->
        positive seeds int_of_string_opt 0 v;
        parse rest
    | "--shards" :: v :: rest ->
        positive shards int_of_string_opt 0 v;
        parse rest
    | name :: rest -> (
        match
          List.find_opt (fun t -> t.Experiments.Targets.name = name) targets
        with
        | Some t -> t :: parse rest
        | None -> usage ())
  in
  let selected =
    match parse (List.tl (Array.to_list Sys.argv)) with
    | [] ->
        List.filter
          (fun t -> List.mem t.Experiments.Targets.name [ "all"; "micro" ])
          targets
    | selected -> selected
  in
  let failed =
    List.concat_map
      (fun (t : Experiments.Targets.t) ->
        let ms = t.run !scale in
        if !json && ms <> [] then begin
          let config =
            [
              ("scale", Printf.sprintf "%g" !scale);
              ("seeds", string_of_int !seeds);
              ("shards", string_of_int !shards);
            ]
          in
          Printf.printf "wrote %s\n"
            (Experiments.Runner.write_json ~experiment:t.name ~config ms)
        end;
        Experiments.Harness.failed ms)
      selected
  in
  if failed <> [] then begin
    prerr_endline ("acceptance failed: " ^ String.concat ", " failed);
    exit 1
  end
