(** The one experiment harness: banner, deployment, open- and
    closed-loop load drivers, the saturation criterion, a column spec
    that renders both a table and its measurement list, and named
    acceptance predicates. A load sweep declares its workload, variants,
    cell record and columns; the harness does the rest. *)

type measurement = string * float

val heading : string -> unit
(** Print a title between two rules — every experiment's banner. *)

val key : string -> string -> Fdsl.Ast.expr
(** [key prefix input] is the key expression [prefix ^ input]. *)

val transfer : string -> src:string -> dst:string -> Fdsl.Ast.func
(** [transfer name ~src ~dst]: a two-argument read-modify-write moving
    one unit from key [src ^ arg1] to key [dst ^ arg2]. *)

val transfer_args : Sim.Rng.t -> n:int -> int -> Dval.t list
(** [transfer_args rng ~n src]: ["a<src>"] and a different account of
    [n], drawn uniformly from [rng]. *)

val wall_fns : Fdsl.Ast.func list
(** ["post"] (append to ["wall:" ^ w], return the old text) and the
    write-free ["read_wall"]. *)

val scaled : float -> int -> int
(** [scaled scale n]: [n] scaled, at least 1. *)

val rate_label : float -> string
(** A rate as ["400/s"]. *)

val deploy :
  seed:int ->
  ?tracer:Metrics.Tracer.t ->
  config:Radical.Framework.config ->
  funcs:Fdsl.Ast.func list ->
  data:(string * Dval.t) list ->
  (rng:Sim.Rng.t -> fw:Radical.Framework.t -> 'a) ->
  'a
(** Run [body ~rng ~fw] in a fresh engine seeded with [seed]: the root
    RNG's first split seeds the transport (5% jitter), the framework is
    created over it, the body runs, and the framework is stopped. Read
    live counters inside the body. *)

type load = {
  lat : Metrics.Stats.t;  (** Every request's end-to-end latency. *)
  errors : int;
  requests : int;
  achieved : float;  (** Completions per second up to the last one. *)
}

val open_loop :
  rng:Sim.Rng.t ->
  fw:Radical.Framework.t ->
  rate:float ->
  duration:float ->
  (Sim.Rng.t -> string * Dval.t list) ->
  load
(** Poisson arrivals at [rate]/s for [duration] ms, round-robin over the
    sites. Requests draw from one workload RNG split off [rng] before
    the arrival process's. *)

val closed_loop :
  rng:Sim.Rng.t ->
  fw:Radical.Framework.t ->
  clients_per_loc:int ->
  requests_per_client:int ->
  think_time:float ->
  ?observe:(string -> Radical.Runtime.outcome -> unit) ->
  (client:int -> iter:int -> Sim.Rng.t -> string * Dval.t list) ->
  load
(** [clients_per_loc] clients per site, each with its own RNG split off
    [rng], issue [requests_per_client] requests [think_time] ms apart;
    [observe] sees each request's function and outcome. *)

val peak_sustainable : (float * float) list -> float
(** Highest offered rate whose median stays within 2x the first cell's,
    over [(offered, median)] pairs in ascending rate order; 0 for []. *)

(** {1 Columns} *)

type 'c column
(** A header, a cell formatter, and optionally a measurement key. *)

val column :
  ?measure:string * ('c -> float) -> string -> ('c -> string) -> 'c column

val int : ?key:string -> string -> ('c -> int) -> 'c column

val ms : ?key:string -> string -> ('c -> float) -> 'c column
(** One decimal; NaN prints as ["-"], as does {!decimal}. *)

val decimal : ?key:string -> string -> ('c -> float) -> 'c column
val ratio : ?key:string -> string -> ('c -> float) -> 'c column

val achieved : ('c -> load) -> 'c column
val median : ('c -> load) -> 'c column
val p99 : ('c -> load) -> 'c column
val requests : ('c -> load) -> 'c column
val errors : ?key:string -> ('c -> load) -> 'c column
(** The shared load columns; the first three keyed [achieved_rps],
    [median_ms], [p99_ms]. *)

val table : 'c column list -> 'c list -> unit

val measurements :
  prefix:('c -> string) -> 'c column list -> 'c list -> measurement list
(** [prefix cell ^ "." ^ key] for each keyed column of each cell. *)

(** {1 Acceptance} *)

type check

val check : string -> bool -> ('a, unit, string, check) format4 -> 'a
(** [check name ok fmt ...]: predicate [name] holds iff [ok]; the text
    says what was compared. *)

val accept : exp:string -> string -> check list -> measurement list
(** Print the acceptance block, one [OK]/[FAIL] line per check, and
    render each as [<exp>.accept.<name>] = 1 or 0. *)

val failed : measurement list -> string list
(** The [<exp>.accept.*] keys equal to 0: the failed verdicts. *)
