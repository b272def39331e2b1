(* Configuration layer of the LVI server engine: every preset record
   and knob, and nothing that runs. The other server_* modules read
   these through [Server_state.t]; the public [Server] module re-exports
   them unchanged. *)

type mode = Singleton | Replicated of { az_rtt : float }

type protocol_mutation = Skip_reexecution

type batching = {
  group_commit : bool;
  request_flush : bool;
  persist_window : float;
  admission : bool;
  append_cost : float;
}

let no_batching =
  {
    group_commit = false;
    request_flush = false;
    persist_window = 0.0;
    admission = false;
    append_cost = 0.0;
  }

let full_batching =
  {
    group_commit = true;
    request_flush = true;
    persist_window = 2.0;
    admission = true;
    append_cost = 0.0;
  }

type propagation = {
  enabled : bool;
  prop_window : float;
  invalidate_only : bool;
}

let no_propagation =
  { enabled = false; prop_window = 0.0; invalidate_only = false }

let default_propagation =
  { enabled = true; prop_window = 2.0; invalidate_only = false }

(* Read-lease configuration. Off (the seed default) is bit-identical to
   the seed pipeline: no grants are issued, no revocation channels are
   registered, replies carry empty lease lists and the write path never
   consults the (empty) table — mirroring the propagation/batching
   precedent. *)
type leases = {
  enabled : bool;
  duration : float;
      (* Lease term in virtual ms. Short enough that a wait-out on the
         write path stays well under intent timers; long enough that a
         read-heavy site re-validates rarely (grants refresh on every
         validated read reply). *)
  revoke : bool;
      (* true: the write path fires revocations to holding sites and
         waits for the acks, falling back to the expiry wait only for
         sites that do not answer. false: always wait out the expiry —
         the leaner protocol with no revocation channel, paying write
         latency instead. *)
  revoke_timeout : float;
      (* Per-site revocation RPC timeout before falling back to the
         expiry wait. Must cover a near-storage -> site round trip. *)
}

let no_leases =
  {
    enabled = false;
    duration = 0.0;
    revoke = true;
    revoke_timeout = 0.0;
  }

let default_leases =
  {
    enabled = true;
    duration = 2000.0;
    revoke = true;
    revoke_timeout = 400.0;
  }

(* Cross-shard protocol timing, promoted from hard-coded constants. The
   try round fails fast (prepares are non-blocking); the ordered
   fallback must outlive lock waits, which are bounded by intent timers.
   Decisions are retried until acknowledged — the cap only bounds a
   pathological total blackout. *)
type tuning = {
  try_prepare_timeout : float;
  blocking_prepare_timeout : float;
  blocking_prepare_attempts : int;
  decide_timeout : float;
  decide_retry_backoff : float;
  decide_retries : int;
}

let default_tuning =
  {
    try_prepare_timeout = 50.0;
    blocking_prepare_timeout = 4000.0;
    blocking_prepare_attempts = 4;
    decide_timeout = 200.0;
    decide_retry_backoff = 100.0;
    decide_retries = 50;
  }

type config = {
  loc : Net.Location.t;
  intent_timeout : float;
  mode : mode;
  batching : batching;
  propagation : propagation;
  leases : leases;
  tuning : tuning;
}

let default_config =
  {
    loc = Net.Location.near_storage;
    intent_timeout = 1500.0;
    mode = Singleton;
    batching = no_batching;
    propagation = no_propagation;
    leases = no_leases;
    tuning = default_tuning;
  }
