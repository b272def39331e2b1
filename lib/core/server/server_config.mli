(** Configuration layer of the LVI server engine: preset records and
    knobs only. Re-exported (and documented) through the public
    {!Server} interface; the sibling server_* modules read it via
    {!Server_state.t}. *)

type mode = Singleton | Replicated of { az_rtt : float }

type protocol_mutation = Skip_reexecution

type batching = {
  group_commit : bool;
  request_flush : bool;
  persist_window : float;
  admission : bool;
  append_cost : float;
}

val no_batching : batching
val full_batching : batching

type propagation = {
  enabled : bool;
  prop_window : float;
  invalidate_only : bool;
}

val no_propagation : propagation
val default_propagation : propagation

type leases = {
  enabled : bool;
  duration : float;
  revoke : bool;
  revoke_timeout : float;
}

val no_leases : leases
val default_leases : leases

(** Cross-shard commit timing (see {!Server_coordinator}): the
    non-blocking try round's prepare timeout, the ordered blocking
    fallback's timeout and attempt cap, and the retried-until-acked
    decision's timeout / backoff / retry cap. *)
type tuning = {
  try_prepare_timeout : float;
  blocking_prepare_timeout : float;
  blocking_prepare_attempts : int;
  decide_timeout : float;
  decide_retry_backoff : float;
  decide_retries : int;
}

val default_tuning : tuning
(** The pre-promotion hard-coded values: 50 ms try prepares, 4 s × 4
    blocking fallbacks, 200 ms decisions retried 50 times with a 100 ms
    backoff. *)

type config = {
  loc : Net.Location.t;
  intent_timeout : float;
  mode : mode;
  batching : batching;
  propagation : propagation;
  leases : leases;
  tuning : tuning;
}

val default_config : config
