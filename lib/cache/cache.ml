type entry = Store.Kv.versioned = { value : Dval.t; version : int }

type t = {
  items : (string, entry) Hashtbl.t;
  latency : float;
  mutable hits : int;
  mutable misses : int;
}

let create ?(access_latency = 0.5) ?warm () =
  let items =
    match warm with
    | Some kv -> Store.Kv.copy_items kv
    | None -> Hashtbl.create 1024
  in
  { items; latency = access_latency; hits = 0; misses = 0 }

let record t = function
  | Some _ as r ->
      t.hits <- t.hits + 1;
      r
  | None ->
      t.misses <- t.misses + 1;
      None

let get t key =
  Sim.Engine.sleep t.latency;
  record t (Hashtbl.find_opt t.items key)

let get_many t keys =
  Sim.Engine.sleep t.latency;
  List.map (fun k -> (k, record t (Hashtbl.find_opt t.items k))) keys

let version_of t key =
  match Hashtbl.find_opt t.items key with
  | Some { version; _ } -> version
  | None -> -1

let peek t key = Hashtbl.find_opt t.items key

let update t key value ~version =
  match Hashtbl.find_opt t.items key with
  | Some existing when existing.version >= version -> ()
  | Some _ | None -> Hashtbl.replace t.items key { value; version }

(* Version-guarded eviction for invalidation-mode propagation: only an
   entry strictly older than the invalidating write is dropped, so a
   reordered stale invalidation cannot evict data that is already as
   fresh as (or fresher than) the write it announces. *)
let invalidate t key ~version =
  match Hashtbl.find_opt t.items key with
  | Some existing when existing.version < version ->
      Hashtbl.remove t.items key;
      true
  | Some _ | None -> false

let wipe t = Hashtbl.reset t.items

let size t = Hashtbl.length t.items

let hits t = t.hits

let misses t = t.misses

let snapshot t =
  Hashtbl.fold (fun k { value; version } acc -> (k, value, version) :: acc) t.items []

let restore t entries =
  List.iter (fun (k, value, version) -> update t k value ~version) entries

module Leases = Leases
