(** Versioned, linearizable key-value store — the primary copy of the
    data (DynamoDB in the paper's deployment).

    Every item carries a version number stored with the data (§3.1);
    Radical's storage library bumps it on each update. Operations advance
    virtual time by the store's access latency; batch operations pay it
    once (BatchGet/BatchWrite). Versions start at 0 for "never written";
    the first write produces version 1. *)

type t

type versioned = { value : Dval.t; version : int }

val of_list : ?access_latency:float -> (string * Dval.t) list -> t
(** A store seeded with [kvs] in one pass, without advancing time, in a
    table sized to the seed. Each key's version is the number of times
    [kvs] lists it (1 unless repeated); the last value wins. Default
    access latency is 6.0 ms, chosen so that an in-region storage ping
    (1 ms network RTT + access) reproduces Table 2's 7 ms. *)

val access_latency : t -> float

val get : t -> string -> versioned option
(** Blocking read; [None] if the key was never written. *)

val get_many : t -> string list -> (string * versioned option) list
(** Batch read: one access latency for the whole batch. *)

val put : t -> string -> Dval.t -> int
(** Blocking write; returns the new version. *)

val put_many : t -> (string * Dval.t) list -> (string * int) list
(** Batch write: one access latency; returns new versions. *)

val put_if_version : t -> string -> Dval.t -> expected:int -> bool
(** Conditional write: succeeds only if the current version equals
    [expected]. *)

val version_of : t -> string -> int
(** Blocking version read; 0 if absent. *)

val versions_of : t -> string list -> (string * int) list
(** Batch version read: one access latency. *)

(* Latency-free accessors for test assertions and data seeding. *)

val peek : t -> string -> versioned option

val copy_items : t -> (string, versioned) Hashtbl.t
(** A fresh table holding the store's current items. The [versioned]
    records are immutable and shared; the table is not, so writes to
    either side never show through. Warm near-user caches start from
    this. *)

val size : t -> int

val reads : t -> int
(** Cumulative count of read operations (batch counts once per key). *)

val writes : t -> int
