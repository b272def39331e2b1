type t = {
  name : string;
  doc : string;
  run : float -> Harness.measurement list;
}

let v name doc run = { name; doc; run }

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
  let figures =
    [
      v "fig1" "simple app: centralized vs geo-replicated vs local latency"
        (fun scale -> Figures.fig1 ~scale ());
      v "table1" "function catalog: writes, analyzability, execution time"
        (fun _ -> Figures.table1 ());
      v "table2" "storage ping RTT from each location to the primary"
        (fun _ -> Figures.table2 ());
      v "fig4" "latency per application, baseline vs Radical vs ideal"
        (fun scale -> Figures.fig4 (eval scale));
      v "fig5" "latency per deployment location" (fun scale ->
          Figures.fig5 (eval scale));
      v "fig6" "latency per function, baseline vs Radical" (fun scale ->
          Figures.fig6 (eval scale));
      v "repl" "replicated LVI server: added latency vs lock count" (fun _ ->
          Figures.replication ());
      v "cost" "monthly cost, baseline vs Radical" (fun _ -> Figures.cost ());
      v "sensitivity" "benefit vs function execution time" (fun _ ->
          Figures.sensitivity ());
      v "skew" "workload skew vs validation success" (fun _ -> Figures.skew ());
      v "throughput" "throughput parity, Radical vs baseline" (fun _ ->
          Figures.throughput ());
      v "bootstrap" "speculation rate as empty caches warm up" (fun _ ->
          Figures.bootstrap ());
      v "ablation" "overlap vs no overlap vs per-access coordination"
        (fun scale -> Figures.ablation ~scale ());
      v "phases" "per-phase latency breakdown of traced requests" (fun scale ->
          Figures.phases ~scale ());
    ]
  in
  (v "all" "every table and figure, in paper order" (fun scale ->
       List.iter (fun t -> ignore (t.run scale)) figures;
       [])
  :: figures)
  @ [
      v "analyze" "f^rw predict cost raw vs optimized; read-only fast path"
        (fun scale ->
          Analyze_exp.run ~scale ();
          []);
      v "batch" "batching load sweep: group commit, flush, admission, followups"
        (fun scale -> Batch_exp.run ~scale ());
      v "propagate" "cache-update propagation: off vs Nagle windows vs inval"
        (fun scale -> Propagate_exp.run ~scale ());
      v "lease" "read leases off / on / expiry-only on a read-heavy mix"
        (fun scale -> Lease_exp.run ~scale ());
      v "shard" "shard scaling at 1/2/4 shards plus a cross-shard mix"
        (fun scale -> Shard_exp.run ~scale ());
    ]

let usage targets =
  let width =
    List.fold_left (fun w t -> max w (String.length t.name)) 0 targets
  in
  String.concat ""
    (List.map
       (fun t -> Printf.sprintf "  %-*s  %s\n" width t.name t.doc)
       targets)
