(** The experiment targets [radical_cli experiments] dispatches on. *)

type t = {
  name : string;
  doc : string;  (** One line, shown in the [--help] text. *)
  figure : bool;
      (** A table or figure of the paper's evaluation: what the ["all"]
          alias stands for. *)
  run : float -> Harness.measurement list;
      (** Print the experiment at the given request-volume scale and
          return its measurements. *)
}

val all : unit -> t list
(** Every target in presentation order: the tables and figures in paper
    order, then [analyze] and the load sweeps. Figures 4-6 share one
    data collection per scale within a list. *)

val expand : t list -> string list -> t list
(** [expand targets names] resolves command-line names in order, where
    ["all"] stands for every [figure] target in list order; a target
    named more than once runs once, at its first position. Raises
    [Invalid_argument] on a name that is neither ["all"] nor in
    [targets]. *)
