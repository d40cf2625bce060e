(* The engine's search counters: one mutable record per solver state,
   bumped by the engine itself and nowhere else.  Reports read this
   record, and name its counters through [counters]: the JSON status,
   the metrics snapshot (which reads the record the engine attached, see
   {!Metrics.attach}), and with it qubed's worker frames and telemetry.
   So each search event has one counter and one name.
   [Qbf_solver.Solver_types] re-exports the type with its fields. *)

type stats = {
  mutable decisions : int;
  mutable propagations : int; (* unit assignments, clauses + cubes *)
  mutable pure_assignments : int;
  mutable conflicts : int; (* falsified-clause leaves *)
  mutable solutions : int; (* satisfied-matrix / true-cube leaves *)
  mutable learned_clauses : int;
  mutable learned_cubes : int;
  mutable backjumps : int; (* learning-driven non-chronological jumps *)
  mutable chrono_fallbacks : int; (* analyses abandoned for a plain flip *)
  mutable max_decision_level : int;
  mutable restarts_done : int;
  mutable deleted_constraints : int;
}

let empty_stats () =
  {
    decisions = 0;
    propagations = 0;
    pure_assignments = 0;
    conflicts = 0;
    solutions = 0;
    learned_clauses = 0;
    learned_cubes = 0;
    backjumps = 0;
    chrono_fallbacks = 0;
    max_decision_level = 0;
    restarts_done = 0;
    deleted_constraints = 0;
  }

(* Leaves visited: the size measure used by the benchmark harness. *)
let nodes stats = stats.conflicts + stats.solutions

let copy_stats s = { s with decisions = s.decisions }

(* Every counter by its one name.  [max_decision_level] is a high-water
   mark, not a counter: reports carry it as a gauge. *)
let counters =
  [
    ("decisions", fun s -> s.decisions);
    ("propagations", fun s -> s.propagations);
    ("pure_assignments", fun s -> s.pure_assignments);
    ("conflicts", fun s -> s.conflicts);
    ("solutions", fun s -> s.solutions);
    ("learned_clauses", fun s -> s.learned_clauses);
    ("learned_cubes", fun s -> s.learned_cubes);
    ("backjumps", fun s -> s.backjumps);
    ("chrono_fallbacks", fun s -> s.chrono_fallbacks);
    ("restarts_done", fun s -> s.restarts_done);
    ("deleted_constraints", fun s -> s.deleted_constraints);
  ]

(* [diff_stats ~before after] is the per-call delta of two cumulative
   snapshots (incremental sessions report deltas; see Session.solve).
   [max_decision_level] is passed through unchanged. *)
let diff_stats ~before after =
  {
    decisions = after.decisions - before.decisions;
    propagations = after.propagations - before.propagations;
    pure_assignments = after.pure_assignments - before.pure_assignments;
    conflicts = after.conflicts - before.conflicts;
    solutions = after.solutions - before.solutions;
    learned_clauses = after.learned_clauses - before.learned_clauses;
    learned_cubes = after.learned_cubes - before.learned_cubes;
    backjumps = after.backjumps - before.backjumps;
    chrono_fallbacks = after.chrono_fallbacks - before.chrono_fallbacks;
    max_decision_level = after.max_decision_level;
    restarts_done = after.restarts_done - before.restarts_done;
    deleted_constraints =
      after.deleted_constraints - before.deleted_constraints;
  }
