(* Service-level telemetry: the supervisor-side aggregator.

   Workers die — that is the design — so their in-process `lib/obs`
   registries die with them.  This module is where their statistics
   survive: the supervisor feeds every dispatch, heartbeat and
   worker-shipped stats frame into one aggregator, which merges them
   into service-level series:

   - per-job latency and queue-wait log2 histograms;
   - merged engine metrics (backjump/decision-depth histograms, counter
     sums) and merged phase profiles across all worker attempts;
   - progress rate from heartbeat node deltas;
   - correlation ids (job id, attempt, pid) linking each aggregated
     attempt back to per-worker JSONL trace files.

   Event counts are not kept here.  The supervisor counts every service
   event once, in its {!Qbf_obs.Counters} registry (the one --summary
   prints); {!attach} hands that registry over and every dump reads it,
   so the summary and the telemetry document cannot disagree.  Two
   reconciliations must hold over it at the end of a batch:
       spawns = reaped_clean + reaped_crash + reaped_signal + reaped_oom
       jobs_submitted = jobs_decided + jobs_unknown + jobs_errored

   Exposition is dual-format: a JSON document (schema-versioned, the
   machine-readable artifact qtop and trace_stat consume) and
   Prometheus text (qubed_* metric families) for scrapeability.  A
   sink + interval can be attached so a long-lived service rewrites
   both files periodically from its select loop.

   Worker stats frames are cumulative snapshots of the same attempt, so
   the aggregator keeps only the latest per (job id, attempt) and merges
   them all at dump time — never incrementally, which would double
   count. *)

module Json = Qbf_obs.Json
module Metrics = Qbf_obs.Metrics
module Profile = Qbf_obs.Profile
module Counters = Qbf_obs.Counters

let schema = "qubed-telemetry"
let schema_version = 3

(* ------------------------------------------------------------------ *)
(* Aggregator state                                                    *)

type t = {
  started_at : float;
  mutable counters : Counters.t; (* the supervisor's, once attached *)
  latency_h : Metrics.hist; (* per-job wall time, ms *)
  queue_wait_h : Metrics.hist; (* dispatch delay from ready to worker, ms *)
  attempt_stats : (int * int, Protocol.stats * int) Hashtbl.t;
      (* (job id, attempt) -> latest stats frame + pid: cumulative
         snapshots, so only the newest per key counts *)
  mutable correlations : (int * int * int) list;
      (* (job id, attempt, pid), newest first *)
  mutable hb_nodes : int; (* nodes reported over all heartbeats *)
  mutable sink : string option; (* JSON path; Prometheus at path ^ ".prom" *)
  mutable interval_s : float;
  mutable last_write : float;
}

let create ?(now = Unix.gettimeofday ()) () =
  {
    started_at = now;
    counters = Counters.create ();
    latency_h = Metrics.hist_create ();
    queue_wait_h = Metrics.hist_create ();
    attempt_stats = Hashtbl.create 64;
    correlations = [];
    hb_nodes = 0;
    sink = None;
    interval_s = 1.0;
    last_write = now;
  }

(* Read event counts from [counters] from now on. *)
let attach t counters = t.counters <- counters

(* ------------------------------------------------------------------ *)
(* Event hooks (called by the supervisor; plain arguments only, so this
   module never depends on Supervisor's types)                          *)

let on_dispatch t ~id ~attempt ~pid ~queued_s =
  Metrics.hist_add t.queue_wait_h
    (int_of_float (Float.max 0. (queued_s *. 1000.)));
  t.correlations <- (id, attempt, pid) :: t.correlations

let on_heartbeat t ~nodes = t.hb_nodes <- t.hb_nodes + nodes

let on_stats t ~pid (st : Protocol.stats) =
  Hashtbl.replace t.attempt_stats (st.Protocol.st_id, st.Protocol.st_attempt)
    (st, pid)

(* A job settled, [latency_s] after its first dispatch. *)
let on_job_done t ~latency_s =
  Metrics.hist_add t.latency_h
    (int_of_float (Float.max 0. (latency_s *. 1000.)))

(* ------------------------------------------------------------------ *)
(* Merged views                                                        *)

let merged_engine t =
  Hashtbl.fold
    (fun _ (st, _pid) acc ->
      match st.Protocol.st_metrics with
      | None -> acc
      | Some m -> (
          match acc with
          | None -> Some m
          | Some acc -> Some (Metrics.merge_snapshot acc m)))
    t.attempt_stats None

let merged_profile t =
  Hashtbl.fold
    (fun _ (st, _pid) acc ->
      match st.Protocol.st_profile with
      | None -> acc
      | Some p -> (
          match acc with
          | None -> Some p
          | Some acc -> Some (Profile.merge_snapshot acc p)))
    t.attempt_stats None

(* ------------------------------------------------------------------ *)
(* JSON exposition                                                     *)

let sorted_counters t =
  List.sort (fun (a, _) (b, _) -> compare a b) (Counters.snapshot t.counters)

let to_json ?(now = Unix.gettimeofday ()) t =
  let correlations =
    List.rev_map
      (fun (id, attempt, pid) ->
        Json.Obj
          [ ("id", Json.Int id); ("attempt", Json.Int attempt);
            ("pid", Json.Int pid) ])
      t.correlations
  in
  Json.Obj
    [
      ("schema", Json.String schema);
      ("v", Json.Int schema_version);
      ("uptime_s", Json.Float (now -. t.started_at));
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (sorted_counters t))
      );
      ("hb_nodes", Json.Int t.hb_nodes);
      ("latency_ms", Metrics.hist_to_json (Metrics.hist_snapshot t.latency_h));
      ( "queue_wait_ms",
        Metrics.hist_to_json (Metrics.hist_snapshot t.queue_wait_h) );
      ( "engine",
        match merged_engine t with
        | None -> Json.Null
        | Some m -> Metrics.snapshot_to_json m );
      ( "profile",
        match merged_profile t with
        | None -> Json.Null
        | Some p -> Profile.snapshot_to_json p );
      ("correlations", Json.List correlations);
    ]

(* ------------------------------------------------------------------ *)
(* Prometheus exposition                                               *)

let to_prometheus ?(now = Unix.gettimeofday ()) t =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf "# TYPE qubed_uptime_seconds gauge\nqubed_uptime_seconds %.3f\n"
       (now -. t.started_at));
  List.iter
    (fun (k, v) ->
      let name = "qubed_" ^ k ^ "_total" in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n%s %d\n" name name v))
    (sorted_counters t);
  Buffer.add_string buf
    (Printf.sprintf
       "# TYPE qubed_heartbeat_nodes_total counter\nqubed_heartbeat_nodes_total %d\n"
       t.hb_nodes);
  Metrics.prom_hist buf ~name:"qubed_job_latency_ms"
    (Metrics.hist_snapshot t.latency_h);
  Metrics.prom_hist buf ~name:"qubed_queue_wait_ms"
    (Metrics.hist_snapshot t.queue_wait_h);
  (match merged_engine t with
  | None -> ()
  | Some m ->
      Buffer.add_string buf (Metrics.snapshot_to_prometheus ~prefix:"qubed_engine_" m));
  Option.iter
    (fun p -> Buffer.add_string buf (Profile.to_prometheus ~prefix:"qubed_" p))
    (merged_profile t);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* File sink                                                           *)

let write_file path text =
  (* write-then-rename so a scraper never reads a half-written file *)
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc text);
  Sys.rename tmp path

let write_files ?now t path =
  write_file path (Json.to_string (to_json ?now t) ^ "\n");
  write_file (path ^ ".prom") (to_prometheus ?now t)

let set_sink t ?(interval_s = 1.0) path =
  t.sink <- Some path;
  t.interval_s <- interval_s

(* Called from the supervisor's select loop: rewrite the sink files when
   the interval has elapsed.  Interval 0 disables periodic rewrite (the
   final write still happens via [write_files]). *)
let tick ?(now = Unix.gettimeofday ()) t =
  match t.sink with
  | Some path when t.interval_s > 0. && now -. t.last_write >= t.interval_s ->
      t.last_write <- now;
      write_files ~now t path
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Validation (qtop --check, CI smoke, tests)                          *)

let member_int k j = Option.bind (Json.member k j) Json.to_int_opt

let check_json j =
  let counter name =
    match Option.bind (Json.member "counters" j) (member_int name) with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "missing counter %S" name)
  in
  let ( let* ) = Result.bind in
  let* () =
    match (Json.member "schema" j, member_int "v" j) with
    | Some (Json.String s), Some v when s = schema && v = schema_version ->
        Ok ()
    | Some (Json.String s), Some v ->
        Error (Printf.sprintf "schema %s v%d, expected %s v%d" s v schema
                 schema_version)
    | _ -> Error "missing schema/v"
  in
  let* spawns = counter "spawns" in
  let* clean = counter "reaped_clean" in
  let* crash = counter "reaped_crash" in
  let* signal = counter "reaped_signal" in
  let* oom = counter "reaped_oom" in
  let* () =
    if spawns = clean + crash + signal + oom then Ok ()
    else
      Error
        (Printf.sprintf
           "lifecycle does not reconcile: spawns %d <> clean %d + crash %d + \
            signal %d + oom %d"
           spawns clean crash signal oom)
  in
  let* submitted = counter "jobs_submitted" in
  let* decided = counter "jobs_decided" in
  let* unknown = counter "jobs_unknown" in
  let* errored = counter "jobs_errored" in
  let settled = decided + unknown + errored in
  let* () =
    if submitted = settled then Ok ()
    else
      Error
        (Printf.sprintf
           "jobs do not reconcile: submitted %d <> decided %d + unknown %d + \
            errored %d"
           submitted decided unknown errored)
  in
  (* the latency histogram must account for exactly the settled jobs *)
  let* () =
    match Json.member "latency_ms" j with
    | None -> Error "missing latency_ms histogram"
    | Some h -> (
        match Metrics.hist_of_json h with
        | Error m -> Error ("latency_ms: " ^ m)
        | Ok hs ->
            if hs.Metrics.count = settled then Ok ()
            else
              Error
                (Printf.sprintf
                   "latency histogram count %d <> settled jobs %d"
                   hs.Metrics.count settled))
  in
  Ok ()
