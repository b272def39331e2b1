(* Bechamel microbenchmarks of the core primitives: `radical_cli micro`. *)

let run () =
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
