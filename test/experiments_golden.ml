(* Golden transcript of the four load sweeps: the measurement lists of
   batch, propagate, shard and lease at ~scale:1.0 ~seed:42, each
   rendered exactly as [Runner.write_json] renders it, diffed
   byte-for-byte against test/golden_experiments.expected on every
   `dune runtest`. The sweeps' own tables go to /dev/null: headings and
   prose may change, the numbers may not.

   Regenerate (ONLY when a behaviour change is intended and understood):
     dune build @experiments-golden --auto-promote *)

let scale = 1.0
let seed = 42

let sweeps =
  [
    ("batch", fun () -> Experiments.Batch_exp.run ~scale ~seed ());
    ("propagate", fun () -> Experiments.Propagate_exp.run ~scale ~seed ());
    ("shard", fun () -> Experiments.Shard_exp.run ~scale ~seed ());
    ("lease", fun () -> Experiments.Lease_exp.run ~scale ~seed ());
  ]

(* Run [f] with stdout pointed at /dev/null. *)
let silenced f =
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Unix.dup2 null Unix.stdout;
  Unix.close null;
  Fun.protect f ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)

let () =
  let dir = Filename.temp_dir "experiments_golden" "" in
  List.iter
    (fun (experiment, run) ->
      let ms = silenced run in
      let path =
        Experiments.Runner.write_json ~dir ~experiment
          ~config:
            [
              ("scale", Printf.sprintf "%g" scale);
              ("seed", string_of_int seed);
            ]
          ms
      in
      print_string (In_channel.with_open_bin path In_channel.input_all);
      Sys.remove path)
    sweeps;
  Sys.rmdir dir
