(* qube: command-line QBF solver.

   Reads QDIMACS (prenex) or NQDIMACS (non-prenex; see Qbf_io.Nqdimacs)
   and decides the formula with the search engine of the paper, in
   total-order (QuBE(TO)-style) or partial-order (QuBE(PO)-style) mode,
   through the resilient run harness (Qbf_run): structured input
   errors, amortized wall-clock deadlines, SIGINT/SIGTERM-safe
   interruption and an optional memory cap.  Retrying with an escalating
   budget is qubed's job (`qubed --workers 0` runs it in-process).

     qube FILE [--heuristic po|to] [--no-learning] [--no-pure]
          [--restarts] [--prenex STRATEGY] [--miniscope] [--max-nodes N]
          [--timeout S] [--mem-limit MB] [--json-status] [--stats]
          [--trace FILE] [--trace-every N] [--profile] [--telemetry FILE]
          [--proof FILE]

   Observability (Qbf_obs): --trace streams the engine's typed event
   stream (decisions, propagations, conflicts, solutions, learning,
   backjumps, restarts, deletions) as JSONL; --trace-every N samples
   every N-th event so full traces stay affordable; --profile times the
   parse/prenex/build/propagate/analyze/heuristic phases and prints a
   profile table.  --json-status always carries the complete stats
   record (same key set on every exit path, including interrupt and
   memory-cap "s cnf ?" exits) plus metrics/profile snapshots when
   enabled.

   Exit code: 10 if true, 20 if false, 30 if unknown (budget, signal, or
   memory cap), 2 on unreadable/malformed input, following SAT-solver
   conventions.  An interrupted or timed-out solve still prints
   `s cnf ?` plus the partial statistics gathered so far. *)

open Cmdliner
module ST = Qbf_solver.Solver_types
module Run = Qbf_run.Run
module Limits = Qbf_run.Limits
module Obs = Qbf_obs.Obs
module Metrics = Qbf_obs.Metrics
module Trace = Qbf_obs.Trace
module Profile = Qbf_obs.Profile
module Json = Qbf_obs.Json

let input_error e =
  Printf.eprintf "qube: %s\n" (Qbf_run.Run_error.to_string e);
  exit (Qbf_run.Run_error.exit_code e)

let strategy_of_name name =
  match List.assoc_opt name Qbf_prenex.Prenexing.all with
  | Some st -> st
  | None ->
      Printf.eprintf "unknown strategy %S; available: %s\n" name
        (String.concat ", " (List.map fst Qbf_prenex.Prenexing.all));
      exit 2

(* All outcome renderings go through the solver's one Outcome module so
   the result line, the JSON status and qubed's wire format agree. *)
module Outcome = Qbf_solver.Outcome

let json_of_witness = function
  | ST.No_witness -> Json.Null
  | ST.Proof_trace { path; steps; format_version } ->
      Json.Obj
        [
          ("path", Json.String path);
          ("steps", Json.Int steps);
          ("format_version", Json.Int format_version);
        ]

let json_of_report (r : Run.report) =
  Json.Obj
    [
      ("outcome", Json.String (Outcome.to_json_string r.Run.outcome));
      ("time", Json.Float r.Run.time);
      ( "stopped",
        match r.Run.stopped with
        | None -> Json.Null
        | Some s -> Json.String (Run.string_of_stop_reason s) );
      ("witness", json_of_witness r.Run.witness);
      ("stats", Qbf_run.Report.json_of_stats r.Run.stats);
      ( "metrics",
        match r.Run.metrics with
        | None -> Json.Null
        | Some m -> Metrics.snapshot_to_json m );
      ( "profile",
        match r.Run.profile with
        | None -> Json.Null
        | Some p -> Profile.snapshot_to_json p );
    ]

let print_report_comments (r : Run.report) =
  Printf.printf "c time %.3fs\n" r.Run.time;
  (match r.Run.stopped with
  | Some reason ->
      Printf.printf "c stopped-by %s\n" (Run.string_of_stop_reason reason)
  | None -> ());
  Printf.printf "c %s\n" (Format.asprintf "%a" ST.pp_stats r.Run.stats)

let run file heuristic no_learning no_pure restarts prenex_to miniscope
    max_nodes timeout mem_limit json_status stats trace_file trace_every
    profile_on telemetry_file proof_file =
  (* Observability wiring: one collector for the whole invocation; it
     times parse/prenex here and rides in the config for the search. *)
  let trace_oc = Option.map open_out trace_file in
  let trace =
    Option.map
      (fun oc ->
        Trace.create ~capacity:65536 ~every:(max 1 trace_every)
          ~sink:(fun line ->
            output_string oc line;
            output_char oc '\n')
          ())
      trace_oc
  in
  (* Durability: drain and close the sink on *every* exit path — the
     normal one below, input-error [exit 2], the interrupt-flag exits,
     and an uncaught exception (the runtime still runs at_exit before
     dying).  Trace.flush leaves an empty ring, so the second flush on
     the normal path is a no-op. *)
  at_exit (fun () ->
      Option.iter Trace.flush trace;
      Option.iter
        (fun oc ->
          try
            flush oc;
            close_out_noerr oc
          with Sys_error _ -> ())
        trace_oc;
      try flush stdout with Sys_error _ -> ());
  let observing =
    trace <> None || profile_on || json_status || telemetry_file <> None
  in
  (* --telemetry implies the phase profiler: the dump should carry both
     the metrics registry and the phase spans without needing --profile *)
  let collect_profile = profile_on || telemetry_file <> None in
  let obs =
    if observing then
      Some
        (Obs.make ~metrics:(Metrics.create ()) ?trace
           ?profile:(if collect_profile then Some (Profile.create ()) else None)
           ())
    else None
  in
  let prof_enter ph =
    match obs with
    | Some o when o.Obs.profile_on -> Profile.enter o.Obs.profile ph
    | _ -> ()
  in
  let prof_leave ph =
    match obs with
    | Some o when o.Obs.profile_on -> Profile.leave o.Obs.profile ph
    | _ -> ()
  in
  prof_enter Profile.Parse;
  let f = match Run.load file with Ok f -> f | Error e -> input_error e in
  prof_leave Profile.Parse;
  prof_enter Profile.Prenex;
  let f = if miniscope then Qbf_prenex.Miniscope.minimize f else f in
  let f =
    match prenex_to with
    | None -> f
    | Some name -> Qbf_prenex.Prenexing.apply (strategy_of_name name) f
  in
  prof_leave Profile.Prenex;
  let config =
    ST.(
      default_config
      |> with_heuristic
           (match heuristic with
           | "to" -> Total_order
           | "po" -> Partial_order
           | other ->
               Printf.eprintf "unknown heuristic %S (use po or to)\n" other;
               exit 2)
      |> with_learning (not no_learning)
      |> with_pure_literals (not no_pure)
      |> with_restarts restarts
      |> with_db_reduction restarts
      |> with_max_nodes max_nodes
      |> with_obs obs)
  in
  let limits =
    Limits.make ?timeout_s:timeout ?mem_mb:mem_limit ~poll_interval:64 ()
  in
  (* SIGINT/SIGTERM flip a flag the engine polls: the search returns
     Unknown with its partial statistics and we report normally instead
     of dying silently mid-solve. *)
  let interrupt = Limits.Interrupt.create () in
  let restore = Limits.Interrupt.install interrupt in
  let report =
    try Run.solve ~limits ~interrupt ~config ?proof_file f
    with Sys_error msg ->
      Printf.eprintf "qube: cannot write proof: %s\n" msg;
      exit 2
  in
  restore ();
  (* drain any buffered trace events and close the stream *)
  Option.iter Trace.flush trace;
  Option.iter close_out trace_oc;
  Printf.printf "s cnf %c %s\n" (Outcome.to_char report.Run.outcome) file;
  (match report.Run.witness with
  | ST.Proof_trace { path; steps; _ } ->
      Printf.printf "c proof %s steps %d\n" path steps
  | ST.No_witness ->
      if proof_file <> None then
        (* conclusive-but-uncertified (chronological conclusion) or
           inconclusive: tell the caller not to expect a checkable file *)
        Printf.printf "c proof incomplete\n");
  (* Partial statistics are the whole point of a graceful stop: always
     print them when the run was cut short, even without --stats. *)
  if stats || report.Run.outcome = ST.Unknown then begin
    print_report_comments report;
    if stats then
      Printf.printf "c vars %d clauses %d prefix-level %d prenex %b\n"
        (Qbf_core.Formula.nvars f)
        (Qbf_core.Formula.num_clauses f)
        (Qbf_core.Prefix.prefix_level (Qbf_core.Formula.prefix f))
        (Qbf_core.Prefix.is_prenex (Qbf_core.Formula.prefix f))
  end;
  (if profile_on then
     match report.Run.profile with
     | Some snap ->
         Printf.printf "c profile\n";
         String.split_on_char '\n' (Profile.render_table snap)
         |> List.iter (fun l -> if l <> "" then Printf.printf "c   %s\n" l)
     | None -> ());
  (match trace with
  | Some t ->
      Printf.printf "c trace events offered=%d recorded=%d every=%d\n"
        (Trace.offered t) (Trace.recorded t) (Trace.every t)
  | None -> ());
  (* Dual-format telemetry dump of this run: the same shape a qubed
     telemetry consumer expects for a single-process solve — JSON at
     FILE, Prometheus text at FILE.prom. *)
  (match telemetry_file with
  | None -> ()
  | Some path ->
      let write p text =
        let oc = open_out p in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> output_string oc text)
      in
      write path
        (Json.to_string
           (Json.Obj
              [
                ("schema", Json.String "qube-telemetry");
                ("v", Json.Int 1);
                ("file", Json.String file);
                ("outcome", Json.String (Outcome.to_json_string report.Run.outcome));
                ("report", json_of_report report);
              ])
        ^ "\n");
      let buf = Buffer.create 1024 in
      (match report.Run.metrics with
      | Some m ->
          Buffer.add_string buf
            (Metrics.snapshot_to_prometheus ~prefix:"qube_engine_" m)
      | None -> ());
      (match report.Run.profile with
      | Some p ->
          List.iter
            (fun sp ->
              let labels = [ ("phase", sp.Profile.phase) ] in
              let add name v =
                Buffer.add_string buf
                  (Printf.sprintf "# TYPE %s counter\n" name);
                Metrics.prom_sample buf ~name ~labels v
              in
              add "qube_profile_calls_total" (float_of_int sp.Profile.calls);
              add "qube_profile_wall_seconds_total" sp.Profile.wall_s;
              add "qube_profile_cpu_seconds_total" sp.Profile.cpu_s)
            p
      | None -> ());
      write (path ^ ".prom") (Buffer.contents buf));
  if json_status then begin
    let status =
      Json.Obj
        [
          ("file", Json.String file);
          ("outcome", Json.String (Outcome.to_json_string report.Run.outcome));
          ("time", Json.Float report.Run.time);
          ("report", json_of_report report);
        ]
    in
    print_endline (Json.to_string status)
  end;
  exit
    (match report.Run.outcome with ST.True -> 10 | ST.False -> 20 | _ -> 30)

let file_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
    ~doc:"Input formula (QDIMACS or NQDIMACS).")

let heuristic_arg =
  Arg.(value & opt string "po"
    & info [ "heuristic" ] ~docv:"MODE"
        ~doc:"Branching mode: $(b,po) (partial-order, the paper's \
              QuBE(PO)) or $(b,to) (total-order, QuBE(TO)).")

let no_learning_arg =
  Arg.(value & flag & info [ "no-learning" ] ~doc:"Disable good/nogood learning.")

let no_pure_arg =
  Arg.(value & flag & info [ "no-pure" ] ~doc:"Disable pure-literal fixing.")

let restarts_arg =
  Arg.(value & flag
    & info [ "restarts" ]
        ~doc:"Enable Luby restarts and learned-database reduction.")

let prenex_arg =
  Arg.(value & opt (some string) None
    & info [ "prenex" ] ~docv:"STRATEGY"
        ~doc:"Convert to prenex form first (EupAup, EupAdown, EdownAup, \
              EdownAdown).")

let miniscope_arg =
  Arg.(value & flag
    & info [ "miniscope" ]
        ~doc:"Minimise quantifier scopes first (prenex input only).")

let max_nodes_arg =
  Arg.(value & opt (some int) None
    & info [ "max-nodes" ] ~docv:"N" ~doc:"Stop after N search leaves.")

let timeout_arg =
  Arg.(value & opt (some float) None
    & info [ "timeout" ] ~docv:"S" ~doc:"Wall-clock budget in seconds.")

let mem_limit_arg =
  Arg.(value & opt (some int) None
    & info [ "mem-limit" ] ~docv:"MB"
        ~doc:"Stop (outcome unknown) when the major heap exceeds MB \
              mebibytes; checked from a GC alarm, so it costs nothing \
              on the search path.")

let json_status_arg =
  Arg.(value & flag
    & info [ "json-status" ]
        ~doc:"Print a one-line JSON status record (outcome, time, \
              statistics, metrics and profile snapshots) after the \
              result line.")

let stats_arg =
  Arg.(value & flag & info [ "stats" ] ~doc:"Print search statistics.")

let trace_arg =
  Arg.(value & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Stream the engine's typed event stream (decision, \
              propagation, pure, conflict, solution, learn-clause, \
              learn-cube, backjump, restart, constraint-delete) to FILE \
              as JSONL, one event per line with decision level, prefix \
              level and a monotonic timestamp.")

let trace_every_arg =
  Arg.(value & opt int 1
    & info [ "trace-every" ] ~docv:"N"
        ~doc:"Record every N-th event only (deterministic sampling), so \
              full traces of hard instances stay affordable.  Default 1 \
              (record everything).")

let profile_arg =
  Arg.(value & flag
    & info [ "profile" ]
        ~doc:"Time the parse, prenex, build, propagate, analyze and \
              heuristic phases (wall and CPU) and print a profile \
              table.")

let telemetry_arg =
  Arg.(value & opt (some string) None
    & info [ "telemetry" ] ~docv:"FILE"
        ~doc:"Write this run's metrics and phase profile to FILE as \
              JSON and to FILE.prom as Prometheus text (implies metric \
              and profile collection).")

let proof_arg =
  Arg.(value & opt (some string) None
    & info [ "proof" ] ~docv:"FILE"
        ~doc:"Record a Q-resolution trace of the run to FILE, checkable \
              independently with $(b,qcheck_proof).  Forces pure-literal \
              fixing off for the run.")

let cmd =
  let doc = "search-based QBF solver with non-prenex (quantifier tree) support" in
  Cmd.v
    (Cmd.info "qube" ~doc ~exits:
       [ Cmd.Exit.info 10 ~doc:"the formula is true";
         Cmd.Exit.info 20 ~doc:"the formula is false";
         Cmd.Exit.info 30 ~doc:"unknown: budget exhausted, interrupted, \
                                or memory cap reached";
         Cmd.Exit.info 2 ~doc:"unreadable or malformed input" ])
    Term.(
      const run $ file_arg $ heuristic_arg
      $ no_learning_arg $ no_pure_arg
      $ restarts_arg $ prenex_arg $ miniscope_arg
      $ max_nodes_arg $ timeout_arg $ mem_limit_arg
      $ json_status_arg $ stats_arg $ trace_arg $ trace_every_arg
      $ profile_arg $ telemetry_arg $ proof_arg)

let () = exit (Cmd.eval cmd)
