(** Lease authority of the LVI server engine: read-lease grant, and the
    write-path settle barrier.

    Grants are only issued on paths where the replied versions are known
    to equal primary at an instant when the key is not write-locked; the
    write path settles every outstanding grant on its write set before
    the write may validate. *)

val grant_leases :
  Server_state.t ->
  site:Net.Location.t ->
  (string * int) list ->
  Proto.lease_grant list
(** Issue a lease on each (key, version) to [site]. No-ops unless
    leases are on, the site registered a revocation channel, and it is
    not the server's own location. Keys whose version is no longer
    primary's, or that are write-locked at this instant, are skipped. *)

val skew : float
(** ε, the clock-skew bound (5 ms): the extra margin the write path
    waits past a lease's expiry before proceeding without an
    acknowledged revocation. The simulation's clock is global, so this
    models the safety margin a real deployment needs. *)

val settle_write_leases :
  ?span:Metrics.Tracer.span -> Server_state.t -> string list -> unit
(** Write-path barrier: block until every outstanding lease covering the
    keys is dead — by parallel revocation RPCs when configured, by
    waiting out the latest expiry (plus the clock-skew bound ε)
    otherwise. Bounded either way: a settle can delay a write, never
    wedge it. *)
