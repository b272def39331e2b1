(** The experiment targets both front-ends dispatch on
    ([bench/main.exe] and [radical_cli experiments]). *)

type t = {
  name : string;
  doc : string;  (** One line, shown in usage text. *)
  run : float -> Harness.measurement list;
      (** Print the experiment at the given request-volume scale and
          return its measurements. *)
}

val v : string -> string -> (float -> Harness.measurement list) -> t
(** [v name doc run]. *)

val all : unit -> t list
(** Every figure, table and sweep, in presentation order, starting with
    ["all"] (every figure and table). Figures 4-6 share one data
    collection per scale within a list. *)

val usage : t list -> string
(** One aligned ["  name  doc"] line per target. *)
