(* Outside-in measurement for the benchmark.

   Nothing here reaches into the program: it times calls into public
   functions (Framework.create, Registry.register, Engine.run, the
   oracle checks, Lincheck.decide), reads public counters (Runtime,
   Server, Transport, Cache, Wasm.Interp, Engine) and the public
   Tracer / Server.on_stage hooks, and reads the OCaml GC. *)

open Sim
module Stats = Metrics.Stats
module Tracer = Metrics.Tracer
module Transport = Net.Transport
module Framework = Radical.Framework
module Server = Radical.Server
module Runtime = Radical.Runtime
module Registry = Radical.Registry
module Oracle = Chaos.Oracle

(* --- host cost of a section of work ---------------------------------- *)

type cost = { cpu : float; minor : float; promoted : float }
(** Host CPU seconds, and words allocated on the minor heap / promoted
    to the major heap. *)

let no_cost = { cpu = 0.0; minor = 0.0; promoted = 0.0 }

let add_cost a b =
  { cpu = a.cpu +. b.cpu; minor = a.minor +. b.minor;
    promoted = a.promoted +. b.promoted }

let sub_cost a b =
  { cpu = a.cpu -. b.cpu; minor = a.minor -. b.minor;
    promoted = a.promoted -. b.promoted }

let snapshot () =
  let g = Gc.quick_stat () in
  { cpu = Sys.time (); minor = g.minor_words; promoted = g.promoted_words }

let measure f =
  let before = snapshot () in
  let r = f () in
  (r, sub_cost (snapshot ()) before)

(* --- host speed --------------------------------------------------------- *)

(* On a shared machine the CPU time of the same work drifts by up to 3x
   as other tenants come and go. Host times are therefore scaled to a
   reference speed: a fixed kernel of standard-library work (hashing,
   allocation, sorting; no code of this repository, so no change to the
   program moves it) is timed before each repetition, and that
   repetition's host times are multiplied by
   [reference_kernel_s /. measured]. *)
let reference_kernel_s = 0.05

let kernel () =
  let rng = Random.State.make [| 42 |] in
  let h = Hashtbl.create 1024 in
  for i = 0 to 99_999 do
    Hashtbl.replace h (string_of_int (Random.State.int rng 25_000)) i
  done;
  let a = Array.init 50_000 (fun _ -> Random.State.float rng 1.0) in
  Array.sort Float.compare a;
  let l = List.init 50_000 (fun i -> (a.(i), i)) in
  Hashtbl.length h + List.length (List.sort compare l)

(* Reference seconds per host CPU second now: the median of three
   kernel timings. *)
let host_speed () =
  let time () = (snd (measure (fun () -> Sys.opaque_identity (kernel ())))).cpu in
  let t = List.sort Float.compare (List.init 3 (fun _ -> time ())) in
  reference_kernel_s /. List.nth t 1

(* --- named counters --------------------------------------------------- *)

type tally = (string, float) Hashtbl.t

let bump (t : tally) name v =
  Hashtbl.replace t name (v +. Option.value ~default:0.0 (Hashtbl.find_opt t name))

let get (t : tally) name = Option.value ~default:0.0 (Hashtbl.find_opt t name)

let bump_int t name v = bump t name (float_of_int v)

(* --- one repetition of a workload ------------------------------------- *)

type rep = {
  seed : int;
  tracer : Tracer.t;  (** {!Tracer.noop} unless this is the traced run. *)
  limit_ms : float;  (** Latency limit for goodput. *)
  reads : Stats.t;  (** Virtual latency of statically read-only calls. *)
  writes : Stats.t;  (** ... of calls with a write set. *)
  tally : tally;  (** Program counters summed over deployments. *)
  speed : float;  (** {!host_speed} measured before this repetition. *)
  mutable expected : int;  (** Calls the workload meant to issue. *)
  mutable attempted : int;
  mutable completed : int;
  mutable failed : int;
  mutable within_limit : int;
  mutable window_ms : float;  (** Virtual time the load ran for. *)
  mutable fingerprint : int;  (** Running hash of every virtual outcome. *)
  mutable peak_fibers : int;
  mutable engine : cost;  (** Whole Engine.run calls. *)
  mutable setup : cost;  (** Framework.create, summed. *)
  mutable oracle : cost;  (** Quiescence checks, summed. *)
  mutable register_cpu : float;  (** Registry.register, traced run only. *)
  mutable events : int;
  mutable history_max : int;  (** Longest history handed to Lincheck. *)
  mutable violations : string list;
}

let new_rep ~seed ~traced ~limit_ms ~speed =
  {
    seed;
    speed;
    tracer = (if traced then Tracer.create () else Tracer.noop);
    limit_ms;
    reads = Stats.create ();
    writes = Stats.create ();
    tally = Hashtbl.create 64;
    expected = 0;
    attempted = 0;
    completed = 0;
    failed = 0;
    within_limit = 0;
    window_ms = 0.0;
    fingerprint = 0;
    peak_fibers = 0;
    engine = no_cost;
    setup = no_cost;
    oracle = no_cost;
    register_cpu = 0.0;
    events = 0;
    history_max = 0;
    violations = [];
  }

let traced r = Tracer.enabled r.tracer

let violation r fmt =
  Printf.ksprintf (fun s -> r.violations <- s :: r.violations) fmt

(* Drive cost: everything the engines did except building deployments
   and judging them. *)
let drive r = sub_cost r.engine (add_cost r.setup r.oracle)

(* A host CPU time of this repetition in reference seconds. *)
let ref_s r cpu = cpu *. r.speed

(* Run [main] in [engine] up to virtual time [until]. A fiber failure,
   or a [main] that never returns (a deadlocked workload, a teardown
   that cannot quiesce), is a violation, not a benchmark crash. *)
let run_engine r ~until engine main =
  let finished = ref false in
  let crash, c =
    measure (fun () ->
        match Engine.run ~until engine (fun () -> main (); finished := true) with
        | () -> None
        | exception e -> Some e)
  in
  r.engine <- add_cost r.engine c;
  r.events <- r.events + Engine.events_processed engine;
  match crash with
  | Some e -> violation r "[no-crash] %s" (Printexc.to_string e)
  | None -> if not !finished then violation r "[stuck] run never completed"

(* --- deployments ------------------------------------------------------ *)

type deployment = { fw : Framework.t; net : Transport.t; engine : Engine.t }

(* Whether the registry's analysis proved [fn] write-free. *)
let read_only d fn =
  match Registry.find (Framework.registry d.fw) fn with
  | Some e -> e.Registry.read_only
  | None -> invalid_arg ("unregistered function " ^ fn)

let deploy r ~engine ?schema ~config ~net ~funcs ~data () =
  let fw, c =
    measure (fun () ->
        Framework.create ~config ?schema ~tracer:r.tracer ~net ~funcs ~data ())
  in
  r.setup <- add_cost r.setup c;
  if traced r then begin
    (* Registration alone, on a throwaway registry: the share of
       Framework.create that compile + analyze + certify costs. Counted
       as setup so the drive phase excludes it. *)
    let (), rc =
      measure (fun () ->
          let reg = Registry.create () in
          List.iter (fun f -> ignore (Registry.register reg f)) funcs)
    in
    r.register_cpu <- r.register_cpu +. rc.cpu;
    r.setup <- add_cost r.setup rc;
    List.iter
      (fun s ->
        Server.on_stage s (fun stage -> bump r.tally ("server.stage." ^ stage) 1.0))
      (Framework.servers fw)
  end;
  { fw; net; engine }

let mix r x = r.fingerprint <- Hashtbl.hash (r.fingerprint, x)

(* One client call: latency at the client site, classified by the
   callee's static read-only flag. *)
let invoke r d ~from fn args =
  let o = Framework.invoke d.fw ~from fn args in
  r.attempted <- r.attempted + 1;
  bump r.tally "wasm.instrs" (float_of_int (Wasm.Interp.instructions_executed ()));
  if traced r then
    r.peak_fibers <- max r.peak_fibers (Engine.live_fibers d.engine);
  (match o.value with
  | Ok v ->
      r.completed <- r.completed + 1;
      Stats.add (if read_only d fn then r.reads else r.writes) o.latency;
      if o.latency <= r.limit_ms then r.within_limit <- r.within_limit + 1;
      mix r (Int64.bits_of_float o.latency, Hashtbl.hash v)
  | Error e ->
      r.failed <- r.failed + 1;
      mix r e);
  o

(* The quiescence checks every workload runs once its load has drained,
   outside the drive phase. [extra] adds workload-specific checks. *)
let quiesce r d ?(extra = fun () -> []) () =
  let found, c =
    measure (fun () ->
        Oracle.drained d.fw @ Oracle.caches_coherent d.fw
        @ Oracle.cross_atomic d.fw @ extra ())
  in
  r.oracle <- add_cost r.oracle c;
  List.iter
    (fun (v : Oracle.violation) -> violation r "[%s] %s" v.inv v.detail)
    found

(* Sum the deployment's public counters into the repetition. *)
let collect r d =
  let t = r.tally in
  List.iter
    (fun loc ->
      let rt = Framework.runtime d.fw loc in
      let s = Runtime.stats rt in
      bump_int t "runtime.invocations" s.invocations;
      bump_int t "runtime.speculative" s.speculative;
      bump_int t "runtime.backup" s.backup;
      bump_int t "runtime.fallback" s.fallback;
      bump_int t "runtime.local" s.lease_local;
      bump_int t "runtime.skipped_speculations" s.skipped_speculations;
      bump_int t "runtime.rpc_timeouts" s.rpc_timeouts;
      bump_int t "runtime.fu_batches" s.fu_batches;
      bump_int t "runtime.lease_installed" s.lease_installed;
      bump_int t "runtime.lease_refused" s.lease_refused;
      bump_int t "runtime.prop_records" s.prop_records;
      bump_int t "runtime.prop_installed" s.prop_installed;
      let c = Runtime.cache rt in
      bump_int t "cache.hits" (Cache.hits c);
      bump_int t "cache.misses" (Cache.misses c))
    (Framework.locations d.fw);
  List.iter
    (fun srv ->
      let s = Server.stats srv in
      bump_int t "server.requests" s.requests;
      bump_int t "server.validated" s.validated;
      bump_int t "server.mismatched" s.mismatched;
      bump_int t "server.ro_fast" s.ro_fast;
      bump_int t "server.admission_waits" s.admission_waits;
      bump_int t "server.persist_flushes" s.persist_flushes;
      bump_int t "server.lease_blocked_writes" s.lease_blocked_writes;
      bump_int t "server.lease_revokes" s.lease_revokes;
      bump_int t "server.lease_expiry_waits" s.lease_expiry_waits;
      bump_int t "server.reexecutions" s.reexecutions;
      bump_int t "server.followups_discarded" s.followups_discarded;
      bump_int t "server.cross_requests" s.cross_requests;
      bump_int t "server.cross_aborts" s.cross_aborts)
    (Framework.servers d.fw);
  bump_int t "net.sent" (Transport.messages_sent d.net);
  bump_int t "net.dropped" (Transport.messages_dropped d.net);
  bump_int t "net.timeouts" (Transport.calls_timed_out d.net);
  bump_int t "net.late_replies" (Transport.late_replies d.net)
