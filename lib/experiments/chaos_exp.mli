(** Chaos campaign bundle: the experiment-suite entry point for
    [lib/chaos] ([radical_cli chaos]).

    Sweeps the default fault-plan templates over the social and forum
    applications, each in singleton and Raft-replicated deployments,
    expecting zero invariant violations; then demonstrates that the
    oracle has teeth by injecting a deliberate protocol mutation
    (skipped intent re-execution), catching it, and shrinking the
    failing plan to a minimal reproduction. *)

val of_bundle : Bundle.app -> Chaos.Campaign.app

val run :
  ?seeds:int -> ?batching:bool -> ?propagation:bool -> ?leases:bool ->
  ?shards:int -> unit -> int
(** Print campaign reports and the mutation demonstration; returns the
    number of genuine violations (0 expected — mutation-demo failures
    are intentional and not counted).

    [seeds] per (app × mode) cell, default 50 — 200 seeded sweeps in
    total over the 4-cell grid. [batching] turns every batching knob on
    in every cell (group commit, lock-record flush, admission, followup
    coalescing); [propagation] turns asynchronous cache-update
    propagation on, which the propagation-chaos template then stresses
    with lost/duplicated/delayed cache_update messages; [leases] turns
    read leases on, which the lease-chaos template then stresses with
    lost/duplicated/delayed lease_revoke messages, cache wipes and late
    cache updates; [shards > 1] hash-shards the LVI service that many
    ways, putting every cell's multi-key functions on the cross-shard
    commit path under the shard-chaos template and the cross-atomicity
    oracle — the oracle expects zero violations in every combination.

    The mutation demonstration injects [Skip_reexecution], runs a
    deliberately noisy plan and shrinks it; the shrunk plan must still
    reproduce a violation and be shorter than the original. *)
