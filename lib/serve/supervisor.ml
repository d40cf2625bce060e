(* The robustness core of the serving layer.

   The supervisor owns a pool of forked workers and drives a batch of
   jobs through them, surviving anything a worker can do: exit cleanly,
   time out, get OOM-killed, segfault, emit garbage instead of frames,
   or hang without a word.  Its contract is that every job always
   produces exactly one structured report — an outcome or an accounted
   failure — and that one bad worker never delays the others.

   Mechanisms, in the order they appear below:

   - every worker death is {e classified} ({!Qbf_run.Failure}): clean
     result / timeout / OOM signature / crash exit code / garbage or
     truncated stream / heartbeat silence past the hang deadline;
   - transient failures are {e retried} with jittered exponential
     backoff, and budget-shaped failures (timeout, node budget) retry
     at once with an escalated budget, up to a retry cap;
   - each attempt round {e races} the policy's portfolio configurations
     across free workers; the first conclusive answer wins and the
     losers are cancelled (SIGTERM, then SIGKILL after a grace period),
     per the quantifier-structure observation that no single branching
     order dominates;
   - results are {e memoized} by canonical formula hash, so duplicate
     instances in a batch — or re-submissions — answer from cache;
   - when [fork] is unavailable or the pool cannot be (re)populated,
     the supervisor {e degrades} to running attempts in-process, one at
     a time, through the same attempt function and answer handling as a
     forked worker: slower and unisolated, but never refusing the batch.

   Every service event is counted once, in [counters]: the --summary
   record prints it, and an attached {!Telemetry} aggregator reads the
   same registry at dump time. *)

module ST = Qbf_solver.Solver_types
module Run = Qbf_run.Run
module Limits = Qbf_run.Limits
module Failure = Qbf_run.Failure
module Json = Qbf_obs.Json
module Counters = Qbf_obs.Counters
module Trace = Qbf_obs.Trace

(* ------------------------------------------------------------------ *)
(* Policy                                                              *)

type policy = {
  workers : int; (* pool size; 0 forces in-process solving *)
  race : string list; (* config labels raced per attempt round *)
  retries : int; (* extra rounds after the first *)
  backoff_base_s : float;
  backoff_max_s : float;
  grace_s : float; (* SIGTERM -> SIGKILL window *)
  hang_s : float; (* heartbeat silence that declares a hang *)
  timeout_s : float option; (* batch-default per-attempt budget *)
  mem_mb : int option;
  max_nodes : int option;
  fault_p : float; (* per-dispatch injected-fault probability *)
  cache : bool;
  stats : bool; (* workers collect + ship metrics/profile snapshots *)
  proof_dir : string option;
      (* when set, every dispatch asks its worker for a Q-resolution
         trace under this directory, and a conclusive answer's
         certificate is spot-checked before the job settles: a worker
         whose certificate fails the independent checker is treated
         exactly like one that emitted garbage *)
  seed : int; (* worker RNG + backoff jitter seed *)
}

let default_policy =
  {
    workers = 2;
    race = [ "po-watched"; "to-watched" ];
    retries = 6;
    backoff_base_s = 0.05;
    backoff_max_s = 2.0;
    grace_s = 1.0;
    hang_s = 2.0;
    timeout_s = None;
    mem_mb = None;
    max_nodes = None;
    fault_p = 0.0;
    cache = true;
    stats = true;
    proof_dir = None;
    seed = 0;
  }

(* The retry shape: round [n] waits [backoff_base_s * backoff_factor^(n-1)]
   (capped at [backoff_max_s]) stretched by up to [jitter] of itself at
   random; a round after a budget-shaped failure starts at once and
   multiplies the budget by [escalate] instead. *)
let backoff_factor = 2.0
let jitter = 0.5
let escalate = 2.0

(* ------------------------------------------------------------------ *)
(* Per-job reports                                                     *)

(* Per-attempt engine statistics, recovered from stats frames.  Each
   attempt keeps its latest snapshot, so even a killed attempt's partial
   work survives into the job's report. *)
type attempt_stats = {
  as_attempt : int;
  as_pid : int; (* 0 for an in-process attempt *)
  as_metrics : Qbf_obs.Metrics.snapshot option;
  as_profile : Qbf_obs.Profile.snapshot option;
}

type report = {
  r_id : int;
  r_label : string; (* path or "<inline>" *)
  r_outcome : ST.outcome;
  r_time : float; (* solve time of the winning attempt (0 if cached) *)
  r_wall : float; (* first-dispatch-to-answer wall time *)
  r_config : string; (* winning label, or "cache" / "" *)
  r_attempts : int; (* dispatches sent for this job *)
  r_retries : int; (* rounds beyond the first *)
  r_failures : (string * int) list; (* failure-class counts, this job *)
  r_stopped : string option;
  r_error : string option;
  r_cached : bool;
  r_decisions : int;
  r_nodes : int;
  r_proof : string option;
      (* certificate path of the winning attempt, present only after it
         passed the supervisor's spot-check *)
  r_attempt_stats : attempt_stats list; (* ascending by attempt *)
}

let json_of_attempt_stats a =
  Json.Obj
    [
      ("attempt", Json.Int a.as_attempt);
      ("pid", Json.Int a.as_pid);
      ( "metrics",
        match a.as_metrics with
        | None -> Json.Null
        | Some m -> Qbf_obs.Metrics.snapshot_to_json m );
      ( "profile",
        match a.as_profile with
        | None -> Json.Null
        | Some p -> Qbf_obs.Profile.snapshot_to_json p );
    ]

let json_of_report r =
  Json.Obj
    [
      ("id", Json.Int r.r_id);
      ("instance", Json.String r.r_label);
      ("outcome", Json.String (Qbf_solver.Outcome.to_json_string r.r_outcome));
      ("time", Json.Float r.r_time);
      ("wall", Json.Float r.r_wall);
      ("config", Json.String r.r_config);
      ("attempts", Json.Int r.r_attempts);
      ("retries", Json.Int r.r_retries);
      ( "failures",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) r.r_failures) );
      ( "stopped",
        match r.r_stopped with None -> Json.Null | Some s -> Json.String s );
      ( "error",
        match r.r_error with None -> Json.Null | Some s -> Json.String s );
      ("cached", Json.Bool r.r_cached);
      ("decisions", Json.Int r.r_decisions);
      ("nodes", Json.Int r.r_nodes);
      ( "proof",
        match r.r_proof with None -> Json.Null | Some p -> Json.String p );
      ( "attempt_stats",
        Json.List (List.map json_of_attempt_stats r.r_attempt_stats) );
    ]

type summary = {
  s_wall : float;
  s_jobs : int;
  s_decided : int;
  s_unknown : int;
  s_errors : int;
  s_counters : (string * int) list;
}

let json_of_summary s =
  Json.Obj
    [
      ("type", Json.String "summary");
      ("wall", Json.Float s.s_wall);
      ("jobs", Json.Int s.s_jobs);
      ("decided", Json.Int s.s_decided);
      ("unknown", Json.Int s.s_unknown);
      ("errors", Json.Int s.s_errors);
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) s.s_counters) );
    ]

(* ------------------------------------------------------------------ *)
(* Job bookkeeping                                                     *)

type jstate =
  | Ready (* may dispatch queued labels now *)
  | Backoff of float (* blocked until this absolute time *)
  | Done

type jrec = {
  job : Protocol.job;
  mutable hash : string option; (* canonical hash, when cache is on *)
  mutable probed : bool; (* cache already consulted for this job *)
  mutable state : jstate;
  mutable round : int;
  mutable attempts : int;
  mutable outstanding : int; (* attempts racing right now *)
  mutable queue : string list; (* labels not yet dispatched this round *)
  mutable budget_mult : float;
  mutable round_escalates : bool; (* saw a budget-shaped failure *)
  mutable last_failure : Failure.t option;
  mutable failures : (string * int) list;
  mutable first_dispatch : float option;
  mutable ready_since : float; (* when the job last became dispatchable *)
  mutable stats : attempt_stats list; (* latest snapshot per attempt *)
  mutable result : report option;
}

(* An attempt of [j] is over, whatever its result. *)
let release j = if j.outstanding > 0 then j.outstanding <- j.outstanding - 1

(* Replace-or-add the latest snapshot for an attempt (stats frames are
   cumulative: only the newest per attempt counts). *)
let record_stats j (a : attempt_stats) =
  j.stats <-
    a :: List.filter (fun x -> x.as_attempt <> a.as_attempt) j.stats

let record_failure j cls =
  j.last_failure <- Some cls;
  let key = Failure.to_string cls in
  let rec bump = function
    | [] -> [ (key, 1) ]
    | (k, v) :: rest when k = key -> (k, v + 1) :: rest
    | kv :: rest -> kv :: bump rest
  in
  j.failures <- bump j.failures

(* The stop-reason string a worker reports, mapped back to a failure
   class (the worker saw Run.stop_reason; the wire carries its
   rendering). *)
let failure_of_stopped = function
  | "timeout" -> Failure.Timeout
  | "memory" -> Failure.Oom
  | _ -> Failure.Resource

(* ------------------------------------------------------------------ *)
(* The supervisor state                                                *)

type t = {
  policy : policy;
  obs : Qbf_obs.Obs.t;
  counters : Counters.t;
  cache : Cache.t;
  rng : Random.State.t;
  jobs : jrec array;
  mutable pool : Pool.worker list;
  mutable spawn_seq : int; (* worker ordinal, for per-worker seeds *)
  mutable fork_broken : bool; (* spawn failed; stop trying *)
  interrupt : Limits.Interrupt.t option; (* batch-level Ctrl-C / SIGTERM *)
  on_report : report -> unit;
  telemetry : Telemetry.t option; (* service-level aggregator, if attached *)
}

(* Feed the telemetry aggregator, when one is attached.  Every hook is
   a plain function on Telemetry.t so this stays one branch when off. *)
let tel t f = match t.telemetry with Some tel -> f tel | None -> ()

let interrupted t =
  match t.interrupt with
  | Some i -> Limits.Interrupt.triggered i
  | None -> false

let trace t kind ~dlevel ~plevel ~arg =
  if t.obs.Qbf_obs.Obs.trace_on then
    Trace.emit t.obs.Qbf_obs.Obs.trace kind ~dlevel ~plevel ~arg

let now () = Unix.gettimeofday ()

let job_of t id = Array.find_opt (fun j -> j.job.Protocol.id = id) t.jobs

(* ------------------------------------------------------------------ *)
(* Spawning and despawning                                             *)

let spawn_worker t =
  if t.fork_broken then None
  else begin
    t.spawn_seq <- t.spawn_seq + 1;
    match
      Pool.spawn ~stats:t.policy.stats ~fault_p:t.policy.fault_p
        ~seed:(t.policy.seed + (7919 * t.spawn_seq))
        ()
    with
    | Ok w ->
        Counters.incr t.counters "spawns";
        trace t Trace.Serve_spawn ~dlevel:w.Pool.pid ~plevel:0 ~arg:0;
        t.pool <- t.pool @ [ w ];
        Some w
    | Error msg ->
        Counters.incr t.counters "spawn_failures";
        t.fork_broken <- true;
        trace t Trace.Serve_spawn ~dlevel:0 ~plevel:0 ~arg:(-1);
        ignore msg;
        None
  end

let fill_pool t =
  while
    (not t.fork_broken)
    && List.length t.pool < t.policy.workers
    && spawn_worker t <> None
  do
    ()
  done

(* Every reaped worker counts under exactly one class, so that
   spawns = reaped_clean + reaped_crash + reaped_signal + reaped_oom. *)
let count_reap t status =
  Counters.incr t.counters
    (match Failure.of_process_status status with
    | None -> "reaped_clean"
    | Some Failure.Oom -> "reaped_oom"
    | Some (Failure.Signalled _) -> "reaped_signal"
    | Some _ -> "reaped_crash")

let forget_worker t w =
  Pool.close_fds w;
  t.pool <- List.filter (fun x -> x != w) t.pool

(* ------------------------------------------------------------------ *)
(* Finishing jobs                                                      *)

let finish t j report =
  if j.state <> Done then begin
    j.state <- Done;
    j.queue <- [];
    j.result <- Some report;
    (match report.r_outcome with
    | ST.True | ST.False -> Counters.incr t.counters "jobs_decided"
    | ST.Unknown ->
        Counters.incr t.counters
          (if report.r_error <> None then "jobs_errored" else "jobs_unknown"));
    trace t Trace.Serve_result ~dlevel:0 ~plevel:j.attempts
      ~arg:j.job.Protocol.id;
    tel t (fun a -> Telemetry.on_job_done a ~latency_s:report.r_wall);
    t.on_report report
  end

let wall_of j =
  match j.first_dispatch with None -> 0. | Some t0 -> now () -. t0

let base_report j =
  {
    r_id = j.job.Protocol.id;
    r_label = Run.source_label j.job.Protocol.source;
    r_outcome = ST.Unknown;
    r_time = 0.;
    r_wall = wall_of j;
    r_config = "";
    r_attempts = j.attempts;
    r_retries = j.round;
    r_failures = j.failures;
    r_stopped = None;
    r_error = None;
    r_cached = false;
    r_decisions = 0;
    r_nodes = 0;
    r_proof = None;
    r_attempt_stats =
      List.sort (fun a b -> compare a.as_attempt b.as_attempt) j.stats;
  }

(* Cancel every worker still racing an attempt of [j] (it lost). *)
let cancel_siblings t j =
  List.iter
    (fun w ->
      match w.Pool.state with
      | Pool.Busy (d, _) when d.Protocol.d_job.Protocol.id = j.job.Protocol.id
        ->
          Counters.incr t.counters "cancelled_losers";
          trace t Trace.Serve_kill ~dlevel:w.Pool.pid ~plevel:d.Protocol.d_attempt
            ~arg:j.job.Protocol.id;
          Pool.terminate ~now:(now ()) ~grace_s:t.policy.grace_s w
      | _ -> ())
    t.pool

(* A conclusive answer: record, cache, cancel the losing racers, and
   resolve any identical still-pending duplicates straight from the
   cache (no point racing a formula whose answer just landed). *)
let rec settle t j (report : report) =
  finish t j report;
  cancel_siblings t j;
  if t.policy.cache && not report.r_cached then
    match j.hash with
    | None -> ()
    | Some h ->
        Cache.add t.cache h
          { Cache.outcome = report.r_outcome; solve_time = report.r_time };
        Array.iter
          (fun j' ->
            if j'.state <> Done && j'.hash = Some h then begin
              Counters.incr t.counters "cache_hits";
              settle t j'
                {
                  (base_report j') with
                  r_outcome = report.r_outcome;
                  r_config = "cache";
                  r_cached = true;
                  r_wall = wall_of j';
                }
            end)
          t.jobs

(* ------------------------------------------------------------------ *)
(* Retry policy                                                        *)

let give_up t j =
  let stopped =
    Option.map Failure.to_string j.last_failure
  in
  let error =
    match j.last_failure with
    | Some (Failure.Input m) -> Some m
    | Some cls ->
        Some
          (Printf.sprintf "gave up after %d attempts (last failure: %s)"
             j.attempts (Failure.to_string cls))
    | None -> Some "gave up with no attempt record"
  in
  finish t j { (base_report j) with r_stopped = stopped; r_error = error }

(* An attempt of [j] failed with [cls].  Either the round still has
   racers out, or we schedule a retry round (with an escalated budget
   and no wait if a failure was budget-shaped, else after a backoff), or
   we give up. *)
let attempt_failed t j cls =
  if j.state <> Done then begin
    record_failure j cls;
    Counters.incr t.counters ("failures_" ^ Failure.to_string cls);
    if Failure.escalates_budget cls then j.round_escalates <- true;
    match cls with
    | Failure.Input _ ->
        (* permanent: retrying cannot fix the input *)
        give_up t j
    | _ ->
        if j.outstanding = 0 && j.queue = [] then
          if j.round >= t.policy.retries then give_up t j
          else begin
            j.round <- j.round + 1;
            Counters.incr t.counters "retries";
            let p = t.policy in
            (* a budget stop is deterministic: the escalated round needs
               no cool-down, only the bigger budget *)
            let delay =
              if j.round_escalates then begin
                j.budget_mult <- j.budget_mult *. escalate;
                Counters.incr t.counters "budget_escalations";
                0.
              end
              else
                let base =
                  p.backoff_base_s
                  *. (backoff_factor ** float_of_int (j.round - 1))
                in
                Float.min base p.backoff_max_s
                *. (1. +. (jitter *. Random.State.float t.rng 1.0))
            in
            j.round_escalates <- false;
            j.queue <- p.race;
            j.state <- Backoff (now () +. delay);
            trace t Trace.Serve_retry ~dlevel:0 ~plevel:j.round
              ~arg:j.job.Protocol.id
          end
  end

(* ------------------------------------------------------------------ *)
(* Ingress: load, validate, hash                                       *)

(* Jobs are loaded once supervisor-side: an unreadable file or a parse
   error is a permanent Input failure that must not burn worker
   retries, and the loaded formula gives the cache key.  Workers
   re-load from the source themselves (cheaper than shipping the
   formula, and it keeps the wire format trivial). *)
let ingest t j =
  Counters.incr t.counters "jobs_submitted";
  let src = j.job.Protocol.source in
  let loaded =
    match src with
    | Run.Path p -> Run.load p
    | Run.Inline text -> Run.load_string ~file:"<inline>" text
  in
  match loaded with
  | Error e ->
      record_failure j (Failure.Input (Qbf_run.Run_error.to_string e));
      Counters.incr t.counters "failures_input";
      finish t j
        {
          (base_report j) with
          r_error = Some (Qbf_run.Run_error.to_string e);
        }
  | Ok f -> if t.policy.cache then j.hash <- Some (Hash.formula f)

(* One cache probe per job, at first dispatch (not ingress): entries
   only appear when a job settles, and settling already resolves its
   pending duplicates directly, so a single probe is complete. *)
let try_cache t j =
  t.policy.cache && not j.probed
  && begin
    j.probed <- true;
    match j.hash with
    | None -> false
    | Some h -> (
        match Cache.find t.cache h with
        | None ->
            Counters.incr t.counters "cache_misses";
            false
        | Some e ->
            Counters.incr t.counters "cache_hits";
            finish t j
              {
                (base_report j) with
                r_outcome = e.Cache.outcome;
                r_config = "cache";
                r_cached = true;
              };
            true)
  end

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)

let scaled_timeout j = function
  | None -> None
  | Some s -> Some (s *. j.budget_mult)

let scaled_nodes j = function
  | None -> None
  | Some n ->
      Some (int_of_float (Float.min (float_of_int n *. j.budget_mult) 1e15))

(* One certificate file per (job, attempt): attempts race and retry, so
   the path must never be shared between concurrent writers. *)
let proof_path_for t j =
  match t.policy.proof_dir with
  | None -> None
  | Some dir ->
      Some
        (Filename.concat dir
           (Printf.sprintf "job%d-a%d.qrp" j.job.Protocol.id (j.attempts + 1)))

let dispatch_for t j label =
  let d_proof = proof_path_for t j in
  j.attempts <- j.attempts + 1;
  let job = j.job in
  let p = t.policy in
  {
    Protocol.d_job =
      {
        job with
        Protocol.timeout_s =
          scaled_timeout j
            (match job.Protocol.timeout_s with
            | Some _ as s -> s
            | None -> p.timeout_s);
        mem_mb =
          (match job.Protocol.mem_mb with Some _ as m -> m | None -> p.mem_mb);
        max_nodes =
          scaled_nodes j
            (match job.Protocol.max_nodes with
            | Some _ as n -> n
            | None -> p.max_nodes);
      };
    d_config = label;
    d_attempt = j.attempts;
    d_proof;
  }

(* Bookkeeping for an attempt that has just left for the worker [pid]
   (0: this process). *)
let dispatched t j (d : Protocol.dispatch) ~pid =
  let ts = now () in
  if j.first_dispatch = None then j.first_dispatch <- Some ts;
  j.outstanding <- j.outstanding + 1;
  Counters.incr t.counters "dispatches";
  tel t (fun a ->
      Telemetry.on_dispatch a ~id:j.job.Protocol.id
        ~attempt:d.Protocol.d_attempt ~pid ~queued_s:(ts -. j.ready_since));
  trace t Trace.Serve_dispatch ~dlevel:pid ~plevel:d.Protocol.d_attempt
    ~arg:j.job.Protocol.id

(* Hand one queued attempt to [w].  A write failure means the worker
   died between select rounds: put the label back and let the reaper
   deal with the corpse. *)
let dispatch_to t w j label =
  let d = dispatch_for t j label in
  match Protocol.write_frame w.Pool.to_worker (Protocol.json_of_dispatch d) with
  | () ->
      w.Pool.state <- Pool.Busy (d, now ());
      dispatched t j d ~pid:w.Pool.pid
  | exception (Unix.Unix_error _ | Sys_error _) ->
      j.attempts <- j.attempts - 1;
      j.queue <- label :: j.queue;
      Counters.incr t.counters "dispatch_write_failures";
      Pool.terminate ~now:(now ()) ~grace_s:t.policy.grace_s w

let release_backoffs t =
  let ts = now () in
  Array.iter
    (fun j ->
      match j.state with
      | Backoff until when ts >= until ->
          j.state <- Ready;
          j.ready_since <- ts
      | _ -> ())
    t.jobs

(* Release backoffs that have matured, then pair ready labels with idle
   workers, jobs in submission order. *)
let schedule t =
  release_backoffs t;
  let idle () =
    List.find_opt (fun w -> w.Pool.state = Pool.Idle) t.pool
  in
  Array.iter
    (fun j ->
      if j.state = Ready && j.queue <> [] then
        if try_cache t j then ()
        else
          let rec drain () =
            match (j.queue, idle ()) with
            | label :: rest, Some w ->
                j.queue <- rest;
                dispatch_to t w j label;
                drain ()
            | _ -> ()
          in
          drain ())
    t.jobs

(* ------------------------------------------------------------------ *)
(* Worker input handling                                               *)

(* Spot-check a conclusive answer's certificate with the independent
   checker, against a formula the supervisor re-loads itself (worker
   state is never trusted).  [Ok None] means no certificate was demanded
   or the worker legitimately produced none (an incomplete trace reports
   [No_witness], not a fake); [Ok (Some path)] is a verified
   certificate; [Error] means the file exists but fails to prove the
   claimed outcome — the answer is as untrustworthy as a garbage
   frame. *)
let verify_certificate t j (a : Protocol.answer) =
  match (t.policy.proof_dir, a.Protocol.a_proof) with
  | None, _ -> Ok None
  | Some _, None ->
      Counters.incr t.counters "unwitnessed_answers";
      Ok None
  | Some _, Some path -> (
      let formula =
        match j.job.Protocol.source with
        | Run.Path p -> Run.load p
        | Run.Inline text -> Run.load_string ~file:"<inline>" text
      in
      match formula with
      | Error _ -> Ok None (* ingest already vetted the source *)
      | Ok f -> (
          match Qbf_check.Checker.check_file ~formula:f path with
          | Ok v
            when List.mem
                   (a.Protocol.a_outcome = ST.True)
                   v.Qbf_check.Checker.conclusions ->
              Counters.incr t.counters "proofs_checked";
              Ok (Some path)
          | Ok _ -> Error "certificate concludes the wrong outcome"
          | Error fl ->
              Error
                (Printf.sprintf "certificate line %d: %s"
                   fl.Qbf_check.Checker.line fl.Qbf_check.Checker.msg)
          | exception Sys_error msg -> Error msg))

(* The answer to attempt [d] of [j], whether it came over a worker's
   pipe or from an in-process attempt.  Conclusive -> spot-check the
   certificate and settle the job.  Unknown -> that attempt failed
   (timeout / budget / memory, per its stop reason). *)
let handle_answer t j (d : Protocol.dispatch) (a : Protocol.answer) =
  if j.state <> Done then begin
    release j;
    match (a.Protocol.a_error, a.Protocol.a_outcome) with
    | Some msg, _ -> attempt_failed t j (Failure.Input msg)
    | None, (ST.True | ST.False) -> (
        match verify_certificate t j a with
        | Error _ ->
            Counters.incr t.counters "proofs_rejected";
            attempt_failed t j Failure.Garbage
        | Ok r_proof ->
            settle t j
              {
                (base_report j) with
                r_outcome = a.Protocol.a_outcome;
                r_time = a.Protocol.a_time;
                r_config = d.Protocol.d_config;
                r_stopped = a.Protocol.a_stopped;
                r_decisions = a.Protocol.a_decisions;
                r_nodes = a.Protocol.a_nodes;
                r_proof;
              })
    | None, ST.Unknown ->
        let cls =
          match a.Protocol.a_stopped with
          | Some s -> failure_of_stopped s
          | None -> Failure.Resource
        in
        attempt_failed t j cls
  end

(* A stats snapshot of an attempt of [j] run by [pid] (0: in-process). *)
let handle_stats t j ~pid (st : Protocol.stats) =
  Counters.incr t.counters "stats_frames";
  tel t (fun a -> Telemetry.on_stats a ~pid st);
  record_stats j
    {
      as_attempt = st.Protocol.st_attempt;
      as_pid = pid;
      as_metrics = st.Protocol.st_metrics;
      as_profile = st.Protocol.st_profile;
    }

let handle_heartbeat t ~nodes =
  Counters.incr t.counters "heartbeats";
  tel t (fun a -> Telemetry.on_heartbeat a ~nodes)

(* Garbage on a worker's stream: classify, poison the worker. *)
let handle_garbage t w _msg =
  Counters.incr t.counters "garbage_frames";
  (match w.Pool.state with
  | Pool.Busy (d, _) -> (
      match job_of t d.Protocol.d_job.Protocol.id with
      | Some j ->
          release j;
          attempt_failed t j Failure.Garbage
      | None -> ())
  | _ -> ());
  trace t Trace.Serve_kill ~dlevel:w.Pool.pid ~plevel:0 ~arg:(-1);
  Pool.terminate ~now:(now ()) ~grace_s:t.policy.grace_s w

let read_chunk = Bytes.create 65536

(* Drain one readable fd: feed the decoder, pull frames.  EOF is only
   noted — the death itself is classified by the reaper, which sees the
   exit status.  Frames count only for the worker's current assignment
   (stats also for its cancelled one); anything else is a stale frame
   from a cancelled attempt racing its SIGTERM, and is dropped. *)
let drain_worker t w =
  let matches id attempt (d : Protocol.dispatch) =
    d.Protocol.d_job.Protocol.id = id && d.Protocol.d_attempt = attempt
  in
  let current id attempt =
    match w.Pool.state with
    | Pool.Busy (d, _) when matches id attempt d -> Some d
    | _ -> None
  in
  match Unix.read w.Pool.from_worker read_chunk 0 (Bytes.length read_chunk) with
  | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
    ->
      ()
  | exception Unix.Unix_error _ -> w.Pool.eof <- true
  | 0 -> w.Pool.eof <- true
  | n ->
      Protocol.feed w.Pool.decoder read_chunk n;
      let rec pull () =
        match Protocol.next w.Pool.decoder with
        | Protocol.More -> ()
        | Protocol.Garbage msg -> handle_garbage t w msg
        | Protocol.Frame json -> (
            match Protocol.worker_msg_of_json json with
            | Error msg -> handle_garbage t w msg
            | Ok (Protocol.Msg_heartbeat { hb_id; hb_attempt; hb_nodes }) ->
                (match current hb_id hb_attempt with
                | Some d ->
                    w.Pool.state <- Pool.Busy (d, now ());
                    handle_heartbeat t ~nodes:hb_nodes
                | None -> ());
                pull ()
            | Ok (Protocol.Msg_stats st) ->
                (* a race loser's last snapshot is precisely the data a
                   killed worker leaves behind *)
                let id = st.Protocol.st_id and attempt = st.Protocol.st_attempt in
                let cancelled =
                  Option.fold ~none:false ~some:(matches id attempt)
                    w.Pool.cancelled
                in
                (if current id attempt <> None || cancelled then
                   Option.iter
                     (fun j -> handle_stats t j ~pid:w.Pool.pid st)
                     (job_of t id)
                 else Counters.incr t.counters "stale_stats");
                pull ()
            | Ok (Protocol.Msg_answer a) ->
                (match current a.Protocol.a_id a.Protocol.a_attempt with
                | Some d -> (
                    w.Pool.state <- Pool.Idle;
                    match job_of t a.Protocol.a_id with
                    | Some j -> handle_answer t j d a
                    | None -> Counters.incr t.counters "orphan_answers")
                | None -> Counters.incr t.counters "stale_answers");
                pull ())
      in
      pull ()

(* ------------------------------------------------------------------ *)
(* Death, hangs, and the reaper                                        *)

(* A worker died.  If it still owed us an answer, classify the death
   from the exit status (a 0 exit with no answer is a truncated
   stream).  Cancelled workers owe nothing. *)
let worker_died t w status =
  count_reap t status;
  (match w.Pool.state with
  | Pool.Busy (d, _) -> (
      let cls =
        match Failure.of_process_status status with
        | Some c -> c
        | None -> Failure.Truncated
      in
      match job_of t d.Protocol.d_job.Protocol.id with
      | Some j ->
          release j;
          attempt_failed t j cls
      | None -> ())
  | Pool.Dying _ | Pool.Idle -> ());
  forget_worker t w

let check_hangs t =
  let ts = now () in
  List.iter
    (fun w ->
      match w.Pool.state with
      | Pool.Busy (d, last_beat) when ts -. last_beat > t.policy.hang_s -> (
          Counters.incr t.counters "hangs_detected";
          trace t Trace.Serve_kill ~dlevel:w.Pool.pid
            ~plevel:d.Protocol.d_attempt ~arg:d.Protocol.d_job.Protocol.id;
          (match job_of t d.Protocol.d_job.Protocol.id with
          | Some j ->
              release j;
              attempt_failed t j Failure.Hang
          | None -> ());
          Pool.terminate ~now:ts ~grace_s:t.policy.grace_s w)
      | _ -> ())
    t.pool

let reap_and_respawn t ~respawn =
  let ts = now () in
  List.iter
    (fun w ->
      if Pool.overdue ~now:ts w then begin
        Counters.incr t.counters "sigkills";
        Pool.kill_now w
      end)
    t.pool;
  List.iter
    (fun w ->
      match Pool.try_reap w with
      | Some status -> worker_died t w status
      | None ->
          (* not reapable yet: keep waiting; the SIGKILL above
             guarantees eventual progress for Dying workers *)
          ())
    t.pool;
  if respawn then fill_pool t

(* ------------------------------------------------------------------ *)
(* Shutdown                                                            *)

let shutdown t =
  (* Idle workers exit on job-pipe EOF; busy ones get the cancellation
     protocol.  Everything is reaped before we return: no zombies, no
     orphans writing into closed pipes. *)
  let ts = now () in
  List.iter
    (fun w ->
      match w.Pool.state with
      | Pool.Idle -> Pool.close_jobs w
      | Pool.Busy _ -> Pool.terminate ~now:ts ~grace_s:t.policy.grace_s w
      | Pool.Dying _ -> ())
    t.pool;
  let deadline = now () +. t.policy.grace_s +. 1.0 in
  let rec wait () =
    t.pool <-
      List.filter
        (fun w ->
          match Pool.try_reap w with
          | Some status ->
              count_reap t status;
              Pool.close_fds w;
              false
          | None -> true)
        t.pool;
    if t.pool <> [] then
      if now () > deadline then begin
        List.iter
          (fun w ->
            Pool.kill_now w;
            count_reap t (Pool.reap w);
            Pool.close_fds w)
          t.pool;
        t.pool <- []
      end
      else begin
        Unix.sleepf 0.01;
        wait ()
      end
  in
  wait ()

(* ------------------------------------------------------------------ *)
(* The main loop                                                       *)

let all_done t = Array.for_all (fun j -> j.state = Done) t.jobs

(* Next time anything is due: a backoff release, a hang deadline, a
   SIGKILL deadline.  Bounded so a lost wakeup costs at most a beat. *)
let select_timeout t =
  let ts = now () in
  let due = ref 0.25 in
  let consider at = if at -. ts < !due then due := Float.max 0.001 (at -. ts) in
  Array.iter
    (fun j -> match j.state with Backoff at -> consider at | _ -> ())
    t.jobs;
  List.iter
    (fun w ->
      match w.Pool.state with
      | Pool.Busy (_, last_beat) -> consider (last_beat +. t.policy.hang_s)
      | Pool.Dying at -> consider at
      | Pool.Idle -> ())
    t.pool;
  !due

(* An interrupted batch still reports every job: the undone ones get a
   structured "interrupted" record, so downstream accounting never sees
   a hole. *)
let abandon_unfinished t =
  Array.iter
    (fun j ->
      if j.state <> Done then
        finish t j
          {
            (base_report j) with
            r_stopped = Some "interrupted";
            r_error = Some "batch interrupted";
          })
    t.jobs

(* One round of the pool: dispatch, wait for frames, police hangs, reap
   and respawn. *)
let step_pooled t =
  schedule t;
  let fds =
    List.filter_map
      (fun w -> if w.Pool.eof then None else Some w.Pool.from_worker)
      t.pool
  in
  (match Unix.select fds [] [] (select_timeout t) with
  | readable, _, _ ->
      List.iter
        (fun w -> if List.memq w.Pool.from_worker readable then drain_worker t w)
        t.pool
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
  check_hangs t;
  reap_and_respawn t ~respawn:(not (all_done t))

(* With no pool (workers = 0, or fork refusing), the next queued attempt
   in job order runs in this process through the worker's own
   {!Worker.run_attempt}, and its frames and answer reach the same
   handlers as a forked worker's: budgets, certificate checks, retries
   and escalation all apply.  Lost are isolation, racing (a round's
   labels run one after another) and hang detection.  With nothing
   ready, wait for the earliest backoff. *)
let step_in_process t =
  release_backoffs t;
  match Array.find_opt (fun j -> j.state = Ready && j.queue <> []) t.jobs with
  | None -> (
      try Unix.sleepf (select_timeout t)
      with Unix.Unix_error (Unix.EINTR, _, _) -> ())
  | Some j when try_cache t j -> ()
  | Some ({ queue = label :: rest; _ } as j) ->
      j.queue <- rest;
      let d = dispatch_for t j label in
      Counters.incr t.counters "inline_solves";
      dispatched t j d ~pid:0;
      let emit = function
        | Protocol.Msg_heartbeat { hb_nodes; _ } ->
            handle_heartbeat t ~nodes:hb_nodes
        | Protocol.Msg_stats st -> handle_stats t j ~pid:0 st
        | Protocol.Msg_answer _ -> ()
      in
      let a =
        Worker.run_attempt ?interrupt:t.interrupt ~emit ~stats:t.policy.stats d
      in
      (* an attempt the batch interrupt cut short is not the job's
         failure: the job is abandoned with the rest of the batch *)
      if a.Protocol.a_outcome = ST.Unknown && interrupted t then release j
      else handle_answer t j d a
  | Some _ -> ()

let run_batch t =
  fill_pool t;
  while not (all_done t) && not (interrupted t) do
    if t.pool = [] && t.fork_broken then step_in_process t else step_pooled t;
    tel t (fun a -> Telemetry.tick a)
  done;
  abandon_unfinished t;
  shutdown t

let run ?(policy = default_policy) ?(obs = Qbf_obs.Obs.none) ?interrupt
    ?telemetry ?on_report jobs =
  let t0 = now () in
  (* A worker can die between select and our write to it; the EPIPE is
     handled, the signal must not kill us. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  (* Touched up front so a quiet batch still shows every summary key and
     every term of the telemetry reconciliations (a missing counter and
     a zero counter must read the same). *)
  let counters = Counters.create () in
  List.iter (fun l -> Counters.touch counters ("failures_" ^ l)) Failure.all_labels;
  List.iter (Counters.touch counters)
    [ "dispatches"; "retries"; "spawns"; "reaped_clean"; "reaped_crash";
      "reaped_signal"; "reaped_oom"; "jobs_submitted"; "jobs_decided";
      "jobs_unknown"; "jobs_errored"; "cache_hits"; "cache_misses";
      "inline_solves" ];
  Option.iter (fun a -> Telemetry.attach a counters) telemetry;
  let t =
    {
      policy;
      obs;
      counters;
      cache = Cache.create ();
      rng = Random.State.make [| policy.seed; 0x5e12e |];
      jobs =
        Array.of_list
          (List.map
             (fun job ->
               {
                 job;
                 hash = None;
                 probed = false;
                 state = Ready;
                 round = 0;
                 attempts = 0;
                 outstanding = 0;
                 queue = policy.race;
                 budget_mult = 1.0;
                 round_escalates = false;
                 last_failure = None;
                 failures = [];
                 first_dispatch = None;
                 ready_since = t0;
                 stats = [];
                 result = None;
               })
             jobs);
      pool = [];
      spawn_seq = 0;
      fork_broken = policy.workers <= 0;
      interrupt;
      on_report =
        (match on_report with Some f -> f | None -> fun _ -> ());
      telemetry;
    }
  in
  Array.iter (ingest t) t.jobs;
  run_batch t;
  let out =
    Array.to_list t.jobs
    |> List.filter_map (fun j -> j.result)
    |> List.sort (fun a b -> compare a.r_id b.r_id)
  in
  let decided =
    List.length (List.filter (fun r -> r.r_outcome <> ST.Unknown) out)
  in
  let errors = List.length (List.filter (fun r -> r.r_error <> None) out) in
  let summary =
    {
      s_wall = now () -. t0;
      s_jobs = List.length out;
      s_decided = decided;
      s_unknown = List.length out - decided - errors;
      s_errors = errors;
      s_counters = Counters.snapshot t.counters;
    }
  in
  (out, summary)
