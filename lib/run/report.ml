(* The one report shape for a budgeted solve.

   The type, the "why did this stop" derivation for an [Unknown]
   outcome, the collector snapshots and the stats encoder live here, so
   [Run.solve], the serving worker, [qube] and the bench harness report
   through the same code path. *)

module ST = Qbf_solver.Solver_types
module Json = Qbf_obs.Json

type stop_reason =
  | Timeout (* the wall-clock deadline expired *)
  | Interrupted of Limits.Interrupt.reason (* signal / memory / manual *)
  | Node_budget (* the leaf budget was hit *)
  | Budget (* some other configured budget (a custom hook) *)

let string_of_stop_reason = function
  | Timeout -> "timeout"
  | Interrupted (Limits.Interrupt.Signal n) ->
      if n = Sys.sigint then "sigint"
      else if n = Sys.sigterm then "sigterm"
      else Printf.sprintf "signal-%d" n
  | Interrupted Limits.Interrupt.Memory -> "memory"
  | Interrupted Limits.Interrupt.Manual -> "interrupted"
  | Node_budget -> "node-budget"
  | Budget -> "budget"

type t = {
  outcome : ST.outcome;
  time : float; (* seconds, by the limits' clock *)
  stats : ST.stats; (* complete even when stopped early *)
  witness : ST.witness; (* certificate of a conclusive outcome, if any *)
  stopped : stop_reason option; (* None iff the outcome is conclusive *)
  metrics : Qbf_obs.Metrics.snapshot option;
      (* snapshot of the run's metrics registry, when the config carried
         a collector with metrics enabled *)
  profile : Qbf_obs.Profile.snapshot option; (* ditto, phase profiler *)
}

let conclusive r = Qbf_solver.Outcome.conclusive r.outcome

(* Why an [Unknown] solve ended, in priority order: an interrupt beats
   the deadline beats the node budget beats the rest — the same order
   the engine's budget check polls them.  [nodes] are the leaves the
   engine compared against [max_nodes] (cumulative session totals for a
   session call, this run's count otherwise). *)
let stopped_of ~interrupt ~deadline ~max_nodes ~nodes = function
  | ST.True | ST.False -> None
  | ST.Unknown ->
      if Limits.Interrupt.triggered interrupt then
        Some
          (Interrupted
             (Option.value ~default:Limits.Interrupt.Manual
                (Limits.Interrupt.reason interrupt)))
      else if Limits.Deadline.expired deadline then Some Timeout
      else
        let node_hit =
          match max_nodes with Some m -> nodes >= m | None -> false
        in
        Some (if node_hit then Node_budget else Budget)

(* Snapshots of an attached collector, taken when the solve returns
   (also on interrupt/timeout paths: Engine always returns a result). *)
let snapshots_of_obs = function
  | Some o ->
      ( (if o.Qbf_obs.Obs.metrics_on then
           Some (Qbf_obs.Metrics.snapshot o.Qbf_obs.Obs.metrics)
         else None),
        if o.Qbf_obs.Obs.profile_on then
          Some (Qbf_obs.Profile.snapshot o.Qbf_obs.Obs.profile)
        else None )
  | None -> (None, None)

(* Assemble the report of one budgeted solve from the engine's result
   and the limit plumbing that surrounded it. *)
let make ~interrupt ~deadline ~config ~time ~nodes (r : ST.result) =
  let stopped =
    stopped_of ~interrupt ~deadline
      ~max_nodes:config.ST.budgets.ST.max_nodes ~nodes r.ST.outcome
  in
  let metrics, profile = snapshots_of_obs config.ST.observe.ST.obs in
  {
    outcome = r.ST.outcome;
    time;
    stats = r.ST.stats;
    witness = r.ST.witness;
    stopped;
    metrics;
    profile;
  }

(* The complete stats record as JSON, for [qube --json-status] and the
   bench records: every counter under its {!Qbf_obs.Stats.counters}
   name (the names a metrics snapshot uses), then the
   [max_decision_level] high-water mark.  Every key is always present,
   in a fixed order, so the shape is identical on conclusive, timeout,
   interrupt and memory-cap exits alike. *)
let json_of_stats (s : ST.stats) =
  Json.Obj
    (List.map (fun (k, get) -> (k, Json.Int (get s))) ST.counters
    @ [ ("max_decision_level", Json.Int s.ST.max_decision_level) ])
