(* What one pass over a workload's corpus measured: named time sums,
   named exact counts, named sample lists, the answers it produced and
   the checks that failed.  A pass runs in its own forked process (see
   Perfbench) and ships its [result] back with [Marshal]. *)

module ST = Qbf_solver.Solver_types

type t = {
  trace : Span.t;
  profile : Qbf_obs.Profile.t option; (* engine phase profile, traced only *)
  times : (string, float) Hashtbl.t; (* seconds, summed *)
  counts : (string, int) Hashtbl.t; (* exact counters *)
  samples : (string, float list) Hashtbl.t;
  mutable attempted : int;
  mutable failures : string list; (* newest first *)
  mutable answers : string list; (* newest first *)
}

let create ~traced ~pass =
  {
    trace = Span.create ~on:traced ~pass;
    profile = (if traced then Some (Qbf_obs.Profile.create ()) else None);
    times = Hashtbl.create 16;
    counts = Hashtbl.create 16;
    samples = Hashtbl.create 4;
    attempted = 0;
    failures = [];
    answers = [];
  }

let add_time p k v =
  Hashtbl.replace p.times k (v +. Option.value ~default:0. (Hashtbl.find_opt p.times k))

let add_count p k v =
  Hashtbl.replace p.counts k (v + Option.value ~default:0 (Hashtbl.find_opt p.counts k))

let add_sample p k v =
  Hashtbl.replace p.samples k
    (v :: Option.value ~default:[] (Hashtbl.find_opt p.samples k))

(* Time a call into a layer: its span (when traced) and its time sum
   share the name. *)
let timed p name f =
  let v, dt = Span.with_ p.trace name f in
  add_time p name dt;
  v

(* One checked unit of work (a bound, a solve, a check, a job): [ok]
   false records [what] as a failure. *)
let check p ok what =
  p.attempted <- p.attempted + 1;
  if not ok then p.failures <- what :: p.failures

let answer p a = p.answers <- a :: p.answers

(* The config every engine call of a pass shares: the workload's search
   settings, a wall-clock budget per call so a regression cannot hang
   the run, and the phase profiler on traced passes. *)
let config p base =
  let deadline = Qbf_run.Limits.Deadline.after 120. in
  let base =
    ST.(
      base
      |> with_should_stop
           (Some (fun () -> Qbf_run.Limits.Deadline.expired deadline))
      |> with_stop_interval 64)
  in
  match p.profile with
  | None -> base
  | Some profile -> ST.with_obs (Some (Qbf_obs.Obs.make ~profile ())) base

let engine_counters =
  [
    ("decisions", fun s -> s.ST.decisions);
    ("propagations", fun s -> s.ST.propagations);
    ("conflicts", fun s -> s.ST.conflicts);
    ("solutions", fun s -> s.ST.solutions);
    ("learned_clauses", fun s -> s.ST.learned_clauses);
    ("learned_cubes", fun s -> s.ST.learned_cubes);
    ("backjumps", fun s -> s.ST.backjumps);
    ("chrono_fallbacks", fun s -> s.ST.chrono_fallbacks);
    ("deleted_constraints", fun s -> s.ST.deleted_constraints);
  ]

(* Fold a solve's search counters into [engine.<counter>]. *)
let add_stats p (s : ST.stats) =
  List.iter (fun (k, get) -> add_count p ("engine." ^ k) (get s)) engine_counters

(* The marshal-safe digest of a finished pass, shipped from the pass's
   process to the parent. *)
type result = {
  traced : bool;
  wall : float;
  heap_mb : float; (* major-heap peak of the pass's process *)
  times : (string * float) list;
  counts : (string * int) list;
  samples : (string * float list) list;
  attempted : int;
  failures : string list;
  answers : string list;
  spans : Span.span list;
  profile : Qbf_obs.Profile.snapshot;
}

let to_list h = Hashtbl.fold (fun k v l -> (k, v) :: l) h [] |> List.sort compare

let finish (p : t) ~wall ~heap_mb : result =
  {
    traced = p.trace.Span.on;
    wall;
    heap_mb;
    times = to_list p.times;
    counts = to_list p.counts;
    samples = to_list p.samples;
    attempted = p.attempted;
    failures = List.rev p.failures;
    answers = List.rev p.answers;
    spans = Span.spans p.trace;
    profile =
      (match p.profile with
      | None -> []
      | Some pr -> Qbf_obs.Profile.snapshot pr);
  }
