open Sim
module Stats = Metrics.Stats
module Table = Metrics.Table
module Framework = Radical.Framework
module Server = Radical.Server
module Runtime = Radical.Runtime

(* --- read-heavy zipf catalog ------------------------------------------

   A pool of items read with zipf(0.99) popularity — the hottest items
   absorb most of the traffic, which is exactly where leases pay: the
   first validated read of an item from a site earns a lease, and every
   later read of it there is served locally until a writer settles the
   grant. Updates pick their victim uniformly: the 95/5 read/write mix
   (Mix.read_heavy) plus the spread-out write churn keeps every item
   leased at every site most of the time, the way a read-mostly
   catalog behaves. *)

let n_items = 16

(* Statically read-only, single key: the lease-local candidate. *)
let get_item_fn =
  let open Fdsl.Ast in
  {
    fn_name = "get_item";
    params = [ "k" ];
    body = Compute (0.5, Read (Harness.key "item:" "k"));
  }

(* Statically read-only over two keys: local only when BOTH are
   covered — exercises full-coverage gating. *)
let compare_fn =
  let open Fdsl.Ast in
  {
    fn_name = "compare_items";
    params = [ "a"; "b" ];
    body =
      Compute
        ( 0.5,
          Let
            ( "x",
              Read (Harness.key "item:" "a"),
              Let
                ( "y",
                  Read (Harness.key "item:" "b"),
                  Record_lit [ ("a", Var "x"); ("b", Var "y") ] ) ) );
  }

(* The writer: read-modify-write on one item — must settle outstanding
   leases before its write validates. *)
let update_fn =
  let open Fdsl.Ast in
  {
    fn_name = "update_item";
    params = [ "k"; "v" ];
    body =
      Compute
        ( 1.0,
          Let
            ( "cur",
              Read (Harness.key "item:" "k"),
              Seq [ Write (Harness.key "item:" "k", Input "v"); Var "cur" ] ) );
  }

let funcs = [ get_item_fn; compare_fn; update_fn ]

let read_fns = [ get_item_fn.fn_name; compare_fn.fn_name ]

let seed_data =
  List.init n_items (fun i -> (Printf.sprintf "item:i%d" i, Dval.Str "v0"))

(* --- variants --------------------------------------------------------- *)

type variant = { v_name : string; v_leases : Server.leases }

let variants =
  [
    { v_name = "off"; v_leases = Server.no_leases };
    { v_name = "on"; v_leases = Server.default_leases };
    {
      v_name = "on/expiry";
      (* Revocation off: writers always wait out expiry + ε. Reads are
         just as local; the cost shows up on the write path. *)
      v_leases = { Server.default_leases with revoke = false };
    };
  ]

(* --- one cell --------------------------------------------------------- *)

type cell = {
  variant : string;
  load : Harness.load; (* whole mix *)
  ro_lat : Stats.t; (* read-only functions only — the headline *)
  w_lat : Stats.t; (* the writer pays for the settles *)
  local : int; (* invocations served on the lease-local path *)
  ro_requests : int;
  srv : Server.stats;
}

let run_cell ~seed ~variant ~clients_per_loc ~requests_per_client =
  let config =
    {
      Framework.default_config with
      server = { Server.default_config with leases = variant.v_leases };
    }
  in
  Harness.deploy ~seed ~config ~funcs ~data:seed_data (fun ~rng ~fw ->
      let zipf = Workload.Zipf.create ~n:n_items ~theta:0.99 in
      let ro_lat = Stats.create () in
      let w_lat = Stats.create () in
      let local = ref 0 in
      let ro_requests = ref 0 in
      (* get_item dominates compare_items 3:1 inside the 95% read
         share; compare needs BOTH its keys covered to stay local. *)
      let mix =
        Workload.Mix.read_heavy
          ~reads:[ `Get; `Get; `Get; `Compare ]
          ~writes:[ `Update ] ()
      in
      let observe fn (o : Runtime.outcome) =
        if o.path = Runtime.Local then incr local;
        if List.mem fn read_fns then begin
          incr ro_requests;
          Stats.add ro_lat o.latency
        end
        else Stats.add w_lat o.latency
      in
      let load =
        Harness.closed_loop ~rng ~fw ~clients_per_loc ~requests_per_client
          ~think_time:100.0 ~observe (fun ~client ~iter crng ->
            let item () =
              Dval.Str (Printf.sprintf "i%d" (Workload.Zipf.sample zipf crng))
            in
            match Workload.Mix.sample mix crng with
            | `Get -> ("get_item", [ item () ])
            | `Compare -> ("compare_items", [ item (); item () ])
            | `Update ->
                (* Uniform victim: update churn spreads over the pool
                   instead of hammering the zipf head. *)
                ( "update_item",
                  [
                    Dval.Str (Printf.sprintf "i%d" (Rng.int crng n_items));
                    Dval.Str (Printf.sprintf "v%d-%d" client iter);
                  ] ))
      in
      (* Let straggler followups commit and their settles conclude. *)
      Engine.sleep 1000.0;
      {
        variant = variant.v_name;
        load;
        ro_lat;
        w_lat;
        local = !local;
        ro_requests = !ro_requests;
        srv = Server.stats (Framework.server fw);
      })

(* --- the experiment --------------------------------------------------- *)

let load c = c.load
let ms key head stat get = Harness.ms ~key head (fun c -> stat (get c))
let ro_median = ms "ro_median_ms" "ro median" Stats.median (fun c -> c.ro_lat)
let ro_p99 = ms "ro_p99_ms" "ro p99" Stats.p99 (fun c -> c.ro_lat)
let w_median = ms "write_median_ms" "write med" Stats.median (fun c -> c.w_lat)
let mix_median = ms "mix_median_ms" "mix med" Stats.median (fun c -> c.load.lat)

(* The table counts lease-local invocations; the measurement is their
   share of the read-only requests. *)
let local =
  Harness.column
    ~measure:
      ( "local_rate",
        fun c ->
          if c.ro_requests = 0 then 0.0
          else float_of_int c.local /. float_of_int c.ro_requests )
    "local"
    (fun c -> string_of_int c.local)

let errors = Harness.errors ~key:"errors" load
let count key head get = Harness.int ~key head (fun c -> get c.srv)
let grants = count "grants" "grants" (fun s -> s.lease_grants)
let revokes = count "revokes" "revokes" (fun s -> s.lease_revokes)
let waits = count "expiry_waits" "waits" (fun s -> s.lease_expiry_waits)
let blocked = count "blocked_writes" "blocked" (fun s -> s.lease_blocked_writes)

let columns =
  [
    Harness.column "leases" (fun c -> c.variant);
    ro_median; ro_p99; w_median; mix_median; local;
    Harness.int "ro req" (fun c -> c.ro_requests);
    Harness.requests load;
    errors; grants; revokes; waits; blocked;
  ]

let run ?(scale = 1.0) ?(seed = 42) () =
  Harness.heading
    "Read leases — read-heavy zipf mix, read-only median latency with\n\
     leases off / on (revocation) / on (expiry-wait only)";
  let clients_per_loc = 3 in
  let requests_per_client = Stdlib.max 10 (int_of_float (30.0 *. scale)) in
  Printf.printf
    "5 sites x %d clients x %d requests, 95%% reads (get 3:1 compare) /\n\
     5%% updates over %d items (zipf(0.99) reads, uniform updates),\n\
     100 ms think time. A validated read earns its site a per-key\n\
     lease; while every read key of a statically read-only function is\n\
     covered, the invocation never leaves the site.\n"
    clients_per_loc requests_per_client n_items;
  let cells =
    List.map
      (fun variant ->
        run_cell ~seed ~variant ~clients_per_loc ~requests_per_client)
      variants
  in
  Harness.table columns cells;
  let cell name = List.find (fun c -> c.variant = name) cells in
  let off = cell "off" and on = cell "on" in
  let off_ro = Stats.median off.ro_lat and on_ro = Stats.median on.ro_lat in
  let reduction = if off_ro > 0.0 then 1.0 -. (on_ro /. off_ro) else 0.0 in
  Printf.printf
    "\nnotes: 'local' counts invocations that never left their site\n\
     (zero LVI round trips); 'blocked' counts writes that found\n\
     outstanding grants and settled them first — by revocation RPCs\n\
     ('revokes') or by waiting out expiry + eps ('waits'). The\n\
     expiry-only variant shows the same read-side win with the write\n\
     path paying full lease terms instead of one revocation RTT.\n";
  let verdicts =
    Harness.accept ~exp:"lease" "on vs off"
      [
        Harness.check "median" (reduction >= 0.40)
          "read-only median down >= 40%%: %s vs %s, %.0f%% reduction"
          (Table.ms on_ro) (Table.ms off_ro) (100.0 *. reduction);
        Harness.check "no_errors"
          (on.load.errors = 0 && off.load.errors = 0)
          "errors: %d+%d" on.load.errors off.load.errors;
      ]
  in
  Harness.measurements
    ~prefix:(fun c -> "lease." ^ c.variant)
    [
      ro_median; ro_p99; w_median; mix_median; local;
      grants; revokes; waits; blocked; errors;
    ]
    cells
  @ (("lease.accept.ro_median_reduction", reduction) :: verdicts)
