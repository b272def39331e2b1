open Sim
module Stats = Metrics.Stats
module Table = Metrics.Table
module Framework = Radical.Framework
module Runtime = Radical.Runtime

type measurement = string * float

let heading title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "================================================================\n"

let key prefix input = Fdsl.Ast.(Concat [ Str prefix; Input input ])

(* --- workload building blocks ------------------------------------------ *)

(* Read-modify-write moving one unit from [src_prefix ^ src] to
   [dst_prefix ^ dst]; returns the destination's old balance. *)
let transfer name ~src ~dst =
  let open Fdsl.Ast in
  {
    fn_name = name;
    params = [ "src"; "dst" ];
    body =
      Compute
        ( 1.0,
          Let
            ( "s",
              Read (key src "src"),
              Let
                ( "d",
                  Read (key dst "dst"),
                  Seq
                    [
                      Write (key src "src", Binop (Sub, Var "s", Int 1L));
                      Write (key dst "dst", Binop (Add, Var "d", Int 1L));
                      Var "d";
                    ] ) ) );
  }

(* [transfer]'s arguments: account [src] and a uniformly drawn different
   one of [n], as "a<i>" names. *)
let transfer_args rng ~n src =
  let dst = (src + 1 + Rng.int rng (n - 1)) mod n in
  [ Dval.Str (Printf.sprintf "a%d" src); Dval.Str (Printf.sprintf "a%d" dst) ]

(* The shared-wall pair: "post" appends to wall "wall:<w>" and returns
   its old text; "read_wall" is write-free. *)
let wall_fns =
  let open Fdsl.Ast in
  [
    {
      fn_name = "post";
      params = [ "w"; "txt" ];
      body =
        Compute
          ( 1.0,
            Let
              ( "cur",
                Read (key "wall:" "w"),
                Seq
                  [
                    Write
                      ( key "wall:" "w",
                        Concat [ Var "cur"; Str "|"; Input "txt" ] );
                    Var "cur";
                  ] ) );
    };
    {
      fn_name = "read_wall";
      params = [ "w" ];
      body = Compute (0.5, Read (key "wall:" "w"));
    };
  ]

let scaled scale n = max 1 (int_of_float (float_of_int n *. scale))

let rate_label r = Printf.sprintf "%.0f/s" r

(* --- deployment ------------------------------------------------------- *)

(* The transport's RNG is split before the framework exists, and the
   body receives the root RNG next: every sweep's streams split in the
   same order, so a cell's numbers depend only on its seed. *)
let deploy ~seed ?tracer ~config ~funcs ~data body =
  let engine = Engine.create ~seed () in
  let out = ref None in
  Engine.run engine (fun () ->
      let rng = Engine.rng () in
      let net =
        Net.Transport.create ~jitter_sigma:0.05 ~rng:(Rng.split rng) ()
      in
      let fw = Framework.create ~config ?tracer ~net ~funcs ~data () in
      let v = body ~rng ~fw in
      Framework.stop fw;
      out := Some v);
  match !out with Some v -> v | None -> assert false

(* --- load drivers ----------------------------------------------------- *)

type load = {
  lat : Stats.t;
  errors : int;
  requests : int;
  achieved : float;
}

(* Per-request bookkeeping shared by both drivers: invoke, count the
   error, record the latency, note when the last completion landed. *)
let recorder fw =
  let lat = Stats.create () in
  let errors = ref 0 in
  let t0 = Engine.now () in
  let t_last = ref t0 in
  let invoke ~from fn args =
    let o = Framework.invoke fw ~from fn args in
    if Result.is_error o.Runtime.value then incr errors;
    Stats.add lat o.latency;
    t_last := Float.max !t_last (Engine.now ());
    o
  in
  let finish requests =
    let elapsed_s = Float.max 1e-9 ((!t_last -. t0) /. 1000.0) in
    {
      lat;
      errors = !errors;
      requests;
      achieved = float_of_int requests /. elapsed_s;
    }
  in
  (invoke, finish)

let open_loop ~rng ~fw ~rate ~duration request =
  let sites = Framework.locations fw in
  let n_sites = List.length sites in
  let wrng = Rng.split rng in
  let invoke, finish = recorder fw in
  let n =
    Workload.Driver.run_open ~rate ~duration ~rng:(Rng.split rng)
      (fun ~arrival ->
        let from = List.nth sites (arrival mod n_sites) in
        let fn, args = request wrng in
        ignore (invoke ~from fn args))
  in
  finish n

let closed_loop ~rng ~fw ~clients_per_loc ~requests_per_client ~think_time
    ?(observe = fun _ _ -> ()) request =
  let sites = Framework.locations fw in
  let n_sites = List.length sites in
  let n_clients = n_sites * clients_per_loc in
  let client_rngs = Array.init n_clients (fun _ -> Rng.split rng) in
  let invoke, finish = recorder fw in
  let requests = ref 0 in
  Workload.Driver.run_clients ~n:n_clients ~iterations:requests_per_client
    ~think_time (fun ~client ~iter ->
      let from = List.nth sites (client mod n_sites) in
      let fn, args = request ~client ~iter client_rngs.(client) in
      incr requests;
      observe fn (invoke ~from fn args));
  finish !requests

(* Highest offered rate before the latency knee: a cell is sustainable
   while its median stays within 2x the lowest-rate median (the classic
   saturation criterion — queueing delay, not the raw latency floor, is
   what blows up past the knee). 0 when there are no cells. *)
let peak_sustainable = function
  | [] -> 0.0
  | (_, base) :: _ as cells ->
      List.fold_left
        (fun acc (offered, median) ->
          if median <= 2.0 *. base then Float.max acc offered else acc)
        0.0 cells

(* --- columns ---------------------------------------------------------- *)

type 'c column = {
  head : string;
  cell : 'c -> string;
  measure : (string * ('c -> float)) option;
}

let column ?measure head cell = { head; cell; measure }

let keyed key get = Option.map (fun k -> (k, get)) key

let num fmt ?key head get =
  column ?measure:(keyed key get) head (fun c -> fmt (get c))

let int ?key head get =
  column
    ?measure:(keyed key (fun c -> float_of_int (get c)))
    head
    (fun c -> string_of_int (get c))

let dash f v = if Float.is_nan v then "-" else f v
let ms ?key = num (dash Table.ms) ?key
let decimal ?key = num (dash (Printf.sprintf "%.1f")) ?key
let ratio ?key = num Table.pct ?key

let achieved load =
  column
    ~measure:("achieved_rps", fun c -> (load c).achieved)
    "achieved"
    (fun c -> rate_label (load c).achieved)

let stat key head f load = ms ~key head (fun c -> f (load c).lat)
let median load = stat "median_ms" "median" Stats.median load
let p99 load = stat "p99_ms" "p99" Stats.p99 load
let requests load = int "req" (fun c -> (load c).requests)
let errors ?key load = int ?key "err" (fun c -> (load c).errors)

let table columns cells =
  Table.print
    ~header:(List.map (fun c -> c.head) columns)
    ~rows:(List.map (fun cell -> List.map (fun c -> c.cell cell) columns) cells)

let measurements ~prefix columns cells =
  List.concat_map
    (fun cell ->
      List.filter_map
        (fun c ->
          Option.map
            (fun (k, get) -> (prefix cell ^ "." ^ k, get cell))
            c.measure)
        columns)
    cells

(* --- acceptance ------------------------------------------------------- *)

type check = { name : string; ok : bool; detail : string }

let check name ok fmt = Printf.ksprintf (fun detail -> { name; ok; detail }) fmt

let accept ~exp title checks =
  Printf.printf "\nacceptance (%s):\n" title;
  List.iter
    (fun c ->
      Printf.printf "  %s  -> %s\n" c.detail (if c.ok then "OK" else "FAIL"))
    checks;
  List.map
    (fun c ->
      (Printf.sprintf "%s.accept.%s" exp c.name, if c.ok then 1.0 else 0.0))
    checks

let failed ms =
  List.filter_map
    (fun (k, v) ->
      match String.split_on_char '.' k with
      | _ :: "accept" :: _ when v = 0.0 -> Some k
      | _ -> None)
    ms
