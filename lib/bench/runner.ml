(* Budgeted solver runs for the experiment harness, on top of the
   resilient run layer (Qbf_run): amortized wall-clock deadlines instead
   of a per-check [Unix.gettimeofday], and an optional shared interrupt
   so one Ctrl-C (or one pathological instance tripping a memory guard)
   ends a whole suite gracefully instead of wedging it. *)

open Qbf_core
module ST = Qbf_solver.Solver_types
module Run = Qbf_run.Run
module Limits = Qbf_run.Limits
module Obs = Qbf_obs.Obs
module Metrics = Qbf_obs.Metrics
module Profile = Qbf_obs.Profile
module Json = Qbf_obs.Json

type budget = {
  timeout_s : float; (* wall-clock limit per run *)
  max_nodes : int option; (* optional node (leaf) limit *)
}

let budget ?(max_nodes = None) timeout_s = { timeout_s; max_nodes }

type run = {
  outcome : ST.outcome;
  time : float; (* seconds *)
  nodes : int; (* conflict + solution leaves *)
  stats : ST.stats;
  stopped : Run.stop_reason option; (* why an Unknown run ended *)
  metrics : Metrics.snapshot option; (* when the run was observed *)
  profile : Profile.snapshot option; (* ditto *)
}

let timed_out r = r.outcome = ST.Unknown

(* Solve under [budget] with the given heuristic; [aux] optionally marks
   CNF-conversion variables (see Qbf_solver.Solver_types.config);
   [interrupt] aborts this run (and, when shared, the rest of the
   suite) as soon as the engine reaches its next budget check.
   [observe] attaches a fresh metrics + profile collector so the run
   record carries search-shape counts, not just seconds — that is what
   BENCH_*.json snapshots diff across perf PRs. *)
let solve ?aux ?interrupt ?(observe = false) ~heuristic b formula =
  let limits =
    Limits.make ~timeout_s:b.timeout_s ?max_nodes:b.max_nodes
      ~poll_interval:64 ()
  in
  let obs =
    if observe then
      Some (Obs.make ~metrics:(Metrics.create ()) ~profile:(Profile.create ()) ())
    else None
  in
  let config =
    ST.(
      default_config |> with_heuristic heuristic |> with_aux_hint aux
      |> with_obs obs)
  in
  let r = Run.solve ~limits ?interrupt ~config formula in
  {
    outcome = r.Run.outcome;
    time = r.Run.time;
    nodes = ST.nodes r.Run.stats;
    stats = r.Run.stats;
    stopped = r.Run.stopped;
    metrics = r.Run.metrics;
    profile = r.Run.profile;
  }

(* A benchmark instance: the non-prenex original for QuBE(PO) plus one
   or more prenex versions for QuBE(TO), tagged by strategy name. *)
type instance = {
  name : string;
  po : Formula.t;
  tos : (string * Formula.t) list;
  aux : (int -> bool) option;
}

let instance ?aux ?(strategies = [ ("EupAup", Qbf_prenex.Prenexing.e_up_a_up) ])
    ~name po =
  {
    name;
    po;
    tos =
      List.map (fun (sn, st) -> (sn, Qbf_prenex.Prenexing.apply st po)) strategies;
    aux;
  }

type result = {
  inst : string;
  po_run : run;
  to_runs : (string * run) list;
}

let run_instance ?interrupt ?observe b inst =
  {
    inst = inst.name;
    po_run =
      solve ?aux:inst.aux ?interrupt ?observe ~heuristic:ST.Partial_order b
        inst.po;
    to_runs =
      List.map
        (fun (sn, f) ->
          ( sn,
            solve ?aux:inst.aux ?interrupt ?observe ~heuristic:ST.Total_order b
              f ))
        inst.tos;
  }

(* ------------------------------------------------------------------ *)
(* Schema-versioned JSON records (BENCH_*.json)

   One file per bench section, one record per instance, so future perf
   PRs can diff decision/propagation counts instead of wall seconds.
   [schema] is bumped on any key change; consumers should refuse
   versions they do not know. *)

let schema_version = 1

let string_of_outcome = Qbf_solver.Outcome.to_json_string

let json_of_run (r : run) =
  Json.Obj
    [
      ("outcome", Json.String (string_of_outcome r.outcome));
      ("time_s", Json.Float r.time);
      ("nodes", Json.Int r.nodes);
      ( "stopped",
        match r.stopped with
        | None -> Json.Null
        | Some s -> Json.String (Run.string_of_stop_reason s) );
      ("stats", Qbf_run.Report.json_of_stats r.stats);
      ( "metrics",
        match r.metrics with
        | None -> Json.Null
        | Some m -> Metrics.snapshot_to_json m );
      ( "profile",
        match r.profile with
        | None -> Json.Null
        | Some p -> Profile.snapshot_to_json p );
    ]

let json_of_result (r : result) =
  Json.Obj
    [
      ("instance", Json.String r.inst);
      ("po", json_of_run r.po_run);
      ( "to",
        Json.List
          (List.map
             (fun (sn, run) ->
               Json.Obj [ ("strategy", Json.String sn); ("run", json_of_run run) ])
             r.to_runs) );
    ]

let json_of_results ~section results =
  Json.Obj
    [
      ("schema", Json.String "qube-bench");
      ("v", Json.Int schema_version);
      ("section", Json.String section);
      ("results", Json.List (List.map json_of_result results));
    ]

(* Write BENCH_<section>.json under [dir] (created if missing). *)
let write_json ~dir ~section results =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let file = Filename.concat dir (Printf.sprintf "BENCH_%s.json" section) in
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Json.to_string (json_of_results ~section results));
      output_char oc '\n');
  file
