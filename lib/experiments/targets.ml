type t = {
  name : string;
  doc : string;
  figure : bool;
  run : float -> Harness.measurement list;
}

let all () =
  (* Figures 4-6 render views of one data set: collect it once per scale. *)
  let eval =
    let cache = ref None in
    fun scale ->
      match !cache with
      | Some (s, d) when s = scale -> d
      | _ ->
          let d = Figures.collect_eval ~scale () in
          cache := Some (scale, d);
          d
  in
  let fig name doc run = { name; doc; figure = true; run } in
  let sweep name doc run = { name; doc; figure = false; run } in
  [
    fig "fig1" "simple app: centralized vs geo-replicated vs local latency"
      (fun scale -> Figures.fig1 ~scale ());
    fig "table1" "function catalog: writes, analyzability, execution time"
      (fun _ -> Figures.table1 ());
    fig "table2" "storage ping RTT from each location to the primary" (fun _ ->
        Figures.table2 ());
    fig "fig4" "latency per application, baseline vs Radical vs ideal"
      (fun scale -> Figures.fig4 (eval scale));
    fig "fig5" "latency per deployment location" (fun scale ->
        Figures.fig5 (eval scale));
    fig "fig6" "latency per function, baseline vs Radical" (fun scale ->
        Figures.fig6 (eval scale));
    fig "repl" "replicated LVI server: added latency vs lock count" (fun _ ->
        Figures.replication ());
    fig "cost" "monthly cost, baseline vs Radical" (fun _ -> Figures.cost ());
    fig "sensitivity" "benefit vs function execution time" (fun _ ->
        Figures.sensitivity ());
    fig "skew" "workload skew vs validation success" (fun _ -> Figures.skew ());
    fig "throughput" "throughput parity, Radical vs baseline" (fun _ ->
        Figures.throughput ());
    fig "bootstrap" "speculation rate as empty caches warm up" (fun _ ->
        Figures.bootstrap ());
    fig "ablation" "overlap vs no overlap vs per-access coordination"
      (fun scale -> Figures.ablation ~scale ());
    fig "phases" "per-phase latency breakdown of traced requests" (fun scale ->
        Figures.phases ~scale ());
    sweep "analyze" "f^rw predict cost raw vs optimized; read-only fast path"
      (fun scale ->
        Analyze_exp.run ~scale ();
        []);
    sweep "batch"
      "batching load sweep: group commit, flush, admission, followups"
      (fun scale -> Batch_exp.run ~scale ());
    sweep "propagate" "cache-update propagation: off vs Nagle windows vs inval"
      (fun scale -> Propagate_exp.run ~scale ());
    sweep "lease" "read leases off / on / expiry-only on a read-heavy mix"
      (fun scale -> Lease_exp.run ~scale ());
    sweep "shard" "shard scaling at 1/2/4 shards plus a cross-shard mix"
      (fun scale -> Shard_exp.run ~scale ());
  ]

let expand targets names =
  let pick name =
    if name = "all" then List.filter (fun t -> t.figure) targets
    else
      match List.find_opt (fun t -> t.name = name) targets with
      | Some t -> [ t ]
      | None -> invalid_arg ("Targets.expand: unknown target " ^ name)
  in
  List.fold_left
    (fun acc t -> if List.memq t acc then acc else t :: acc)
    [] (List.concat_map pick names)
  |> List.rev
