(** The one report shape for a budgeted solve, shared by {!Run.solve}
    and the serving worker.  {!Run} re-exports the types, so existing
    [Run.report] consumers see these fields unchanged. *)

module ST = Qbf_solver.Solver_types

type stop_reason =
  | Timeout  (** the wall-clock deadline expired *)
  | Interrupted of Limits.Interrupt.reason
      (** a signal arrived, the memory guard tripped, or code tripped
          the interrupt *)
  | Node_budget  (** the leaf budget was hit *)
  | Budget  (** another configured budget (a custom hook) *)

val string_of_stop_reason : stop_reason -> string

type t = {
  outcome : ST.outcome;
  time : float;  (** seconds, measured by the limits' clock *)
  stats : ST.stats;  (** complete even when stopped early *)
  witness : ST.witness;
      (** certificate of a conclusive outcome, when a proof writer was
          attached and the run fully derived its conclusion *)
  stopped : stop_reason option;  (** [None] iff the outcome is conclusive *)
  metrics : Qbf_obs.Metrics.snapshot option;
      (** metrics-registry snapshot, when [config.obs] carried a
          collector with metrics enabled; present on every exit path *)
  profile : Qbf_obs.Profile.snapshot option;
      (** phase-profile snapshot under the same condition *)
}

val conclusive : t -> bool
(** [true] iff the outcome is [True] or [False] (equivalently,
    [stopped = None]). *)

val stopped_of :
  interrupt:Limits.Interrupt.t ->
  deadline:Limits.Deadline.t ->
  max_nodes:int option ->
  nodes:int ->
  ST.outcome ->
  stop_reason option
(** Why an [Unknown] solve ended — interrupt, then deadline, then node
    budget, then other budgets; [None] on conclusive outcomes.  The
    single place this derivation lives. *)

val snapshots_of_obs :
  Qbf_obs.Obs.t option ->
  Qbf_obs.Metrics.snapshot option * Qbf_obs.Profile.snapshot option

val make :
  interrupt:Limits.Interrupt.t ->
  deadline:Limits.Deadline.t ->
  config:ST.config ->
  time:float ->
  nodes:int ->
  ST.result ->
  t
(** Assemble the report of one budgeted solve.  [nodes] is what the
    engine compared against [max_nodes] (the session's cumulative
    totals for session calls, this run's count otherwise). *)

val json_of_stats : ST.stats -> Qbf_obs.Json.t
(** Every {!ST.stats} field, always all keys in one fixed order: the
    [stats] object of [qube --json-status] and of the bench records. *)
