(** Generic experiment runner: deploy an application on a system,
    drive it with closed-loop clients from every location (§5.2's 50
    logical clients), and collect per-request samples. *)

type system =
  | Radical (** The full framework. *)
  | Radical_with of Radical.Framework.config
  | Central (** Primary-datacenter baseline. *)
  | Local (** Inconsistent local storage — the red-line ideal. *)
  | Geo of Net.Location.t list (** Consistent geo-replicated storage. *)
  | Naive_edge (** App near user, storage ops to VA per access (§2). *)
  | Validate_per_read
      (** §1's late-reads strawman: near-user execution with a blocking
          per-read validation round trip. *)

val system_name : system -> string

type sample = { s_loc : Net.Location.t; s_fn : string; s_latency : float }

type result = {
  samples : sample list;
  validation_rate : float option;
      (** validated / (validated + mismatched); Radical runs only. *)
  spec_rate : float option;
      (** Fraction of requests answered by the speculative path. *)
  errors : int;
}

val run :
  ?seed:int ->
  ?locations:Net.Location.t list ->
  ?clients_per_loc:int ->
  ?requests_per_client:int ->
  ?jitter:float ->
  ?think_time:float ->
  ?tracer:Metrics.Tracer.t ->
  system ->
  Bundle.app ->
  result
(** Defaults: the five user locations, 10 clients each, 40 requests per
    client (2,000 requests total), 5%% latency jitter, 500 ms client
    think time (paced load — the paper measures latency, not saturated
    throughput). Each sample is one invocation's end-to-end latency at
    its client's location.

    An enabled [tracer] (default noop) is threaded through the transport
    and — for the Radical systems — the framework, collecting one span
    tree and per-phase histograms per request; inspect it after [run]
    returns (e.g. {!Metrics.Tracer.phases_json}). Baseline systems only
    record wire times. *)

(* Aggregations. *)

val overall : result -> Metrics.Stats.t

val by_fn : result -> (string * Metrics.Stats.t) list

val by_loc : result -> (Net.Location.t * Metrics.Stats.t) list
(** In [Location.user_locations] order (locations present only). *)

val median_of : result -> float

val p99_of : result -> float

val write_json :
  ?dir:string ->
  experiment:string ->
  config:(string * string) list ->
  (string * float) list ->
  string
(** Write an experiment's measurement list as
    [<dir>/BENCH_<experiment>.json] (default [dir] the working
    directory) — the machine-readable output behind
    [radical_cli experiments --json], tracking medians/p99/throughput
    across revisions. [config] records the run parameters (scale, seed, …) as
    string pairs; non-finite measurement values serialize as [null].
    Returns the written path. *)
