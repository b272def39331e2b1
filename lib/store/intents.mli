(** Write-intent table (§3.4), stored in primary storage.

    An intent maps an execution id to a status bit. It is created during
    the handling of an LVI request whose write set is non-empty; either
    the write followup or the deterministic re-execution transitions it
    to completed — whichever happens first wins, and the loser's writes
    are discarded. Operations pay the storage access latency. *)

type t

type status = Pending | Completed

val create : ?access_latency:float -> unit -> t
(** Intents live in DynamoDB in the paper, so the default latency matches
    [Kv.of_list]'s 6.0 ms. *)

val put : t -> exec_id:string -> bool
(** Create a pending intent if none exists — a conditional put-if-absent.
    Returns [true] iff this call created it; [false] means the id is
    already present (in either status), which is how a duplicated LVI
    delivery is detected instead of double-executing. *)

val status : t -> exec_id:string -> status option

val try_complete : t -> exec_id:string -> bool
(** Atomically transition Pending → Completed. Returns [true] iff this
    call performed the transition — the winner applies the writes; a
    loser (late followup, or re-execution racing a followup) must discard
    its writes. [false] also for unknown ids. *)

val remove : t -> exec_id:string -> unit
(** Remove a completed intent (end of protocol). *)

val pending_count : t -> int

(* Latency-free inspection for tests. *)
val peek : t -> exec_id:string -> status option
