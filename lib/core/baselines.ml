open Sim
module Transport = Net.Transport
module Location = Net.Location
module Kv = Store.Kv

type outcome = { value : (Dval.t, string) result; latency : float }

type kind =
  | Centralized of {
      net : Transport.t;
      svc : (string * Dval.t list, Proto.exec_result) Transport.service;
    }
  | Local of (Location.t * Kv.t) list
  | Geo of { replicas : Location.t list; kv : Kv.t }
  | Naive_edge of Kv.t (* app near user, every storage op crosses to VA *)
  | Validate_per_read of Kv.t
    (* the §1 "late reads" strawman: execute near user against a local
       replica, but block on a validation round trip to VA at every read *)

type t = {
  kind : kind;
  reg : Registry.t;
  invoke_overhead : float;
  primary_kv : Kv.t;
}

let make_registry funcs =
  let reg = Registry.create () in
  List.iter
    (fun f ->
      match Registry.register reg f with
      | Ok _ -> ()
      | Error e -> invalid_arg ("Baselines: " ^ e))
    funcs;
  reg

let find reg fn =
  match Registry.find reg fn with
  | Some e -> e
  | None -> invalid_arg ("Baselines.invoke: unknown function " ^ fn)

let centralized ?(invoke_overhead = 12.0) ~net ~funcs ~data () =
  let reg = make_registry funcs in
  let kv = Kv.of_list data in
  let svc =
    Transport.serve net ~loc:Location.near_storage ~name:"baseline-app"
      (fun (fn, args) ->
        Engine.sleep invoke_overhead;
        Execute.on_kv (find reg fn) ~kv args)
  in
  { kind = Centralized { net; svc }; reg; invoke_overhead; primary_kv = kv }

let local ?(invoke_overhead = 12.0) ~locations ~funcs ~data () =
  let reg = make_registry funcs in
  let sites = List.map (fun loc -> (loc, Kv.of_list data)) locations in
  let primary_kv =
    match List.assoc_opt Location.near_storage sites with
    | Some kv -> kv
    | None -> snd (List.hd sites)
  in
  { kind = Local sites; reg; invoke_overhead; primary_kv }

let geo_replicated ?(invoke_overhead = 12.0) ~replicas ~locations:_ ~funcs
    ~data () =
  let reg = make_registry funcs in
  let kv = Kv.of_list data in
  { kind = Geo { replicas; kv }; reg; invoke_overhead; primary_kv = kv }

let naive_edge ?(invoke_overhead = 12.0) ~funcs ~data () =
  let reg = make_registry funcs in
  let kv = Kv.of_list data in
  { kind = Naive_edge kv; reg; invoke_overhead; primary_kv = kv }

let validate_per_read ?(invoke_overhead = 12.0) ~funcs ~data () =
  let reg = make_registry funcs in
  let kv = Kv.of_list data in
  { kind = Validate_per_read kv; reg; invoke_overhead; primary_kv = kv }

(* Strongly consistent geo-replicated storage: each operation reaches
   the nearest replica and then coordinates across the replica set. The
   PRAM bound (§2) makes the coordination term at least the largest
   inter-replica distance; we charge exactly that. *)
let geo_op_delay ~replicas ~from =
  let nearest =
    List.fold_left
      (fun acc r -> Float.min acc (Location.rtt from r))
      Float.infinity replicas
  in
  let coordination =
    List.fold_left
      (fun acc a ->
        List.fold_left (fun acc b -> Float.max acc (Location.rtt a b)) acc replicas)
      0.0 replicas
  in
  nearest +. coordination

let invoke t ~from fn args =
  let start = Engine.now () in
  let result =
    match t.kind with
    | Centralized { net; svc } -> Transport.call net ~from svc (fn, args)
    | Local sites ->
        let kv =
          match List.assoc_opt from sites with
          | Some kv -> kv
          | None -> invalid_arg ("Baselines.invoke: no local site at " ^ from)
        in
        Engine.sleep t.invoke_overhead;
        Execute.on_kv (find t.reg fn) ~kv args
    | Geo { replicas; kv } ->
        Engine.sleep t.invoke_overhead;
        let delay = geo_op_delay ~replicas ~from in
        Execute.run (find t.reg fn)
          ~read:(fun k ->
            Engine.sleep delay;
            match Kv.get kv k with
            | Some { value; _ } -> Some value
            | None -> None)
          ~write:(fun k v ->
            Engine.sleep delay;
            ignore (Kv.put kv k v))
          args
    | Naive_edge kv ->
        (* §2: the application moved near the user but the data stayed in
           VA — every storage operation pays the full user↔VA RTT. *)
        Engine.sleep t.invoke_overhead;
        let delay = Location.rtt from Location.near_storage in
        Execute.run (find t.reg fn)
          ~read:(fun k ->
            Engine.sleep delay;
            match Kv.get kv k with
            | Some { value; _ } -> Some value
            | None -> None)
          ~write:(fun k v ->
            Engine.sleep delay;
            ignore (Kv.put kv k v))
          args
    | Validate_per_read kv ->
        (* The late-reads strawman (§1): execution proceeds against a
           fast local copy, but each read must be validated against the
           primary as it happens — a blocking round trip that nothing
           overlaps. Writes also cross to VA. *)
        Engine.sleep t.invoke_overhead;
        let rtt = Location.rtt from Location.near_storage in
        Execute.run (find t.reg fn)
          ~read:(fun k ->
            Engine.sleep 0.5 (* local cache read *);
            Engine.sleep rtt (* per-read validation *);
            match Kv.peek kv k with
            | Some { value; _ } -> Some value
            | None -> None)
          ~write:(fun k v ->
            Engine.sleep rtt;
            ignore (Kv.put kv k v))
          args
  in
  { value = result.value; latency = Engine.now () -. start }

let primary t = t.primary_kv
