(* The repository's benchmark: one workload per run, every answer checked
   against an independent oracle, every metric printed by name and unit.

     perfbench --workload dia-iter|solve-certify|serve-batch --seed N
               --seconds S --trace 0|1 [--smoke] [--oracle-fault]
               [--root DIR] [--work DIR] [--commit ID]

   A run sets the workload up several times (setup_s is the median),
   makes one small warm-up pass, then makes passes over the corpus until
   S seconds have gone.  Each pass runs in a process forked from the
   set-up parent, so no pass inherits an earlier pass's heap, and
   marshals its measurements to a file the parent reads at the end.  With --trace 1 every other
   pass is traced: spans around every call into a layer plus the
   engine's phase profile.  End-to-end metrics come from untraced
   passes only.

   The last line of standard output is one JSON object: correct,
   attempted, failed, and the metrics (end-to-end ones with --trace 0,
   per-layer ones with --trace 1).  The exit code is 0 only when every
   answer, certificate and trajectory check passed. *)

let workloads = [ "dia-iter"; "solve-certify"; "serve-batch" ]

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
  fault : bool;
  root : string;
  work : string;
  commit : string;
}

let usage = "perfbench --workload W --seed N --seconds S --trace 0|1"

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and smoke = ref false and fault = ref false in
  let root = ref "." and work = ref "_perfbench" and commit = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 traced per-layer run");
      ("--smoke", Arg.Set smoke, " tiny corpora (self-test)");
      ("--oracle-fault", Arg.Set fault, " corrupt one reference answer (self-test)");
      ("--root", Arg.Set_string root, "DIR repository root (examples/)");
      ("--work", Arg.Set_string work, "DIR scratch and result directory");
      ("--commit", Arg.Set_string commit, "ID source revision to record");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (List.mem !workload workloads) then begin
    prerr_endline ("perfbench: unknown workload " ^ !workload ^ "\n" ^ usage);
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "perfbench: --trace takes 0 or 1";
    exit 2
  end;
  {
    workload = !workload;
    seed = !seed;
    seconds = !seconds;
    trace = !trace = 1;
    smoke = !smoke;
    fault = !fault;
    root = !root;
    work = !work;
    commit = !commit;
  }

(* ------------------------------------------------------------------ *)
(* Workload dispatch *)

type setup =
  | Dia of Dia_iter.setup
  | Certify of Solve_certify.setup
  | Serve of Serve_batch.setup

let setup o ~smoke ~fault =
  match o.workload with
  | "dia-iter" -> Dia (Dia_iter.setup ~smoke ~fault)
  | "solve-certify" ->
      Certify (Solve_certify.setup ~smoke ~fault ~root:o.root ~work:o.work)
  | _ -> Serve (Serve_batch.setup ~smoke ~fault ~seed:o.seed ~work:o.work)

let run_pass o s p =
  match s with
  | Dia s -> Dia_iter.run s p
  | Certify s -> Solve_certify.run ~work:o.work s p
  | Serve s -> Serve_batch.run ~seed:o.seed s p

(* The pass process running now, stopped with the benchmark when it is
   interrupted. *)
let current_pass = ref None

let stop_on_signal () =
  let handler _ =
    Option.iter
      (fun pid ->
        (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
      !current_pass;
    exit 130
  in
  List.iter (fun sg -> Sys.set_signal sg (Sys.Signal_handle handler)) [ Sys.sigterm; Sys.sigint ]

(* Run [f] in a forked process that marshals its result to [path];
   true when the process exited normally. *)
let fork_to_file path (f : unit -> 'a) =
  if Sys.file_exists path then Sys.remove path;
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      List.iter (fun sg -> Sys.set_signal sg Sys.Signal_default) [ Sys.sigterm; Sys.sigint ];
      let res : ('a, string) result = try Ok (f ()) with e -> Error (Printexc.to_string e) in
      let oc = open_out_bin path in
      Marshal.to_channel oc res [];
      close_out oc;
      Unix._exit 0
  | pid ->
      current_pass := Some pid;
      let _, status = Unix.waitpid [] pid in
      current_pass := None;
      status = Unix.WEXITED 0

let read_result path : ('a, string) result =
  match open_in_bin path with
  | exception Sys_error _ -> Error "pass process died"
  | ic ->
      let res = try Marshal.from_channel ic with End_of_file | Failure _ -> Error "pass process died" in
      close_in ic;
      Sys.remove path;
      res

let in_child o f =
  let path = Filename.concat o.work "child.bin" in
  ignore (fork_to_file path f);
  read_result path

let pass_file o id = Filename.concat o.work (Printf.sprintf "pass-%d.bin" id)

(* One pass in its own process.  The parent forks every pass from the
   same state: it reads no result and starts no collection until the
   last pass has ended, because OCaml's heap never shrinks and any
   allocation or major collection in the parent would change the heap
   the next pass inherits, and with it that pass's heap peak. *)
let fork_pass o s ~traced ~id =
  fork_to_file (pass_file o id) (fun () ->
      let p = Pass.create ~traced ~pass:id in
      let t0 = Span.now () in
      ignore (Span.with_ p.trace "pass" (fun () -> run_pass o s p));
      let wall = Span.now () -. t0 in
      let heap_mb =
        float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1048576.
      in
      Pass.finish p ~wall ~heap_mb)

(* Seconds per set-up, averaged over repeats until [min_s] has gone, so
   that a set-up of a few microseconds is timed well above the clock's
   resolution. *)
let setup_round o ~min_s =
  let t0 = Span.now () in
  let rec go n =
    ignore (setup o ~smoke:o.smoke ~fault:o.fault);
    let dt = Span.now () -. t0 in
    if dt >= min_s then dt /. float_of_int n else go (n + 1)
  in
  go 1

(* ------------------------------------------------------------------ *)
(* Statistics *)

let sorted l = List.sort compare l

(* Linear-interpolated quantile, as Python's statistics.quantiles
   'inclusive' method. *)
let quantile q l =
  match sorted l with
  | [] -> 0.
  | l ->
      let a = Array.of_list l in
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float pos in
      if i >= n - 1 then a.(n - 1)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median l = quantile 0.5 l
let ratio a b = if b = 0. then 0. else a /. b

(* ------------------------------------------------------------------ *)
(* Metrics *)

type metric = { name : string; value : float; unit_ : string }

let end_to_end = [ "setup_s"; "wall_s"; "solve_s"; "heap_peak_mb" ]
let dia_models = [ "counter4"; "gray3" ]
let engine_counts = List.map fst Pass.engine_counters
let profile_phases = [ "analyze"; "heuristic"; "propagate"; "backtrack"; "build" ]

let span_names =
  [ "pass"; "diameter"; "load"; "prenex"; "solve"; "proof_solve"; "check";
    "supervisor" ]

let exact_counts =
  List.concat_map
    (fun m -> [ "dia." ^ m ^ ".carried_clauses" ])
    dia_models
  @ List.map (fun k -> "engine." ^ k) engine_counts
  @ [ "proof.steps"; "proof.bytes"; "check.steps" ]

(* Counters that must repeat exactly from pass to pass (and run to run
   at one seed).  serve-batch's engine counters depend on which racer
   wins each job, so its trajectory is its answers alone. *)
let trajectory_counts workload =
  if workload = "serve-batch" then [ "serve.jobs"; "serve.cache_hits" ]
  else exact_counts

let fingerprint workload (r : Pass.result) =
  let counts =
    List.map
      (fun k ->
        Printf.sprintf "%s=%d" k (Option.value ~default:0 (List.assoc_opt k r.counts)))
      (trajectory_counts workload)
  in
  (* serve-batch reports jobs in completion order: sort the answers *)
  let answers = List.sort compare r.answers in
  Digest.to_hex (Digest.string (String.concat "\n" (counts @ answers)))

let per_layer_names =
  [ "certify_s"; "check_s"; "jobs_per_s"; "job_p50_s"; "job_p90_s"; "failed_frac" ]
  @ List.concat_map
      (fun m ->
        [ "dia." ^ m ^ ".iter_s"; "dia." ^ m ^ ".final_bound_s";
          "dia." ^ m ^ ".carried_clauses" ])
      dia_models
  @ List.map (fun k -> "engine." ^ k) engine_counts
  @ [ "engine.us_per_decision"; "engine.ns_per_propagation"; "engine.us_per_leaf";
      "io.parse_s"; "io.parse_mb_per_s"; "prenex.apply_s"; "proof.solve_s";
      "proof.bytes"; "proof.steps"; "proof.overhead_ratio"; "check.steps";
      "check.steps_per_s"; "check.mb_per_s"; "check.ratio_to_solve";
      "serve.queue_wait_p50_s"; "serve.queue_wait_p90_s"; "serve.overhead_p50_s";
      "serve.solve_p50_s"; "serve.cache_hit_ratio"; "serve.dispatch_yield";
      "serve.dispatches"; "serve.retries"; "serve.spawns"; "serve.failures";
      "serve.unchecked_jobs" ]
  @ List.map (fun ph -> "engine." ^ ph ^ "_s") profile_phases
  @ [ "trace.overhead_ratio" ]
  @ List.map (fun s -> "trace.self." ^ s ^ "_s") span_names

let unit_of name =
  let ends s = String.ends_with ~suffix:s name in
  if ends "mb_per_s" then "MB/s"
  else if ends "_per_s" then "1/s"
  else if ends "_mb" then "MB"
  else if ends "_s" then "s"
  else if ends "us_per_decision" || ends "us_per_leaf" then "us"
  else if ends "ns_per_propagation" then "ns"
  else if ends "bytes" then "bytes"
  else if ends "_ratio" || ends "_frac" || ends "_yield" || ends "ratio_to_solve"
  then "ratio"
  else "count"

(* Every metric this run can state, by name.  [untraced]/[traced] are
   the passes of each kind; per-pass values are reduced by median. *)
let compute o ~setup_times ~untraced ~traced ~failed ~attempted =
  let med f = median (List.map f untraced) in
  let time k = med (fun (r : Pass.result) -> Option.value ~default:0. (List.assoc_opt k r.times)) in
  let count k =
    match untraced with
    | (r : Pass.result) :: _ -> float_of_int (Option.value ~default:0 (List.assoc_opt k r.counts))
    | [] -> 0.
  in
  let pct q k = med (fun (r : Pass.result) ->
    quantile q (Option.value ~default:[] (List.assoc_opt k r.samples))) in
  let solve = time "solve" and proof_solve = time "proof_solve" in
  let check = time "check" and wall = med (fun r -> r.Pass.wall) in
  let serve = o.workload = "serve-batch" in
  let decisions, leaves =
    if serve then (count "engine.winner_decisions", count "engine.winner_leaves")
    else (count "engine.decisions", count "engine.conflicts" +. count "engine.solutions")
  in
  let traced_wall = median (List.map (fun r -> r.Pass.wall) traced) in
  let self =
    List.map
      (fun (r : Pass.result) -> Span.self_times r.spans)
      traced
  in
  let profile ph =
    median
      (List.map
         (fun (r : Pass.result) ->
           let own =
             List.fold_left
               (fun acc (s : Qbf_obs.Profile.span_snapshot) ->
                 if s.phase = ph then acc +. s.wall_s else acc)
               0. r.profile
           in
           own +. Option.value ~default:0. (List.assoc_opt ("profile." ^ ph) r.times))
         traced)
  in
  let values =
    [
      ("setup_s", median setup_times);
      ("wall_s", wall);
      ("solve_s", solve);
      ("heap_peak_mb", med (fun r -> r.Pass.heap_mb));
      ("certify_s", proof_solve +. check);
      ("check_s", check);
      ("jobs_per_s", if serve then ratio (count "serve.jobs") wall else 0.);
      ("job_p50_s", if serve then pct 0.5 "latency" else 0.);
      ("job_p90_s", if serve then pct 0.9 "latency" else 0.);
      ("failed_frac", ratio (float_of_int failed) (float_of_int attempted));
      ("engine.us_per_decision", 1e6 *. ratio solve decisions);
      ("engine.ns_per_propagation",
        if serve then 0. else 1e9 *. ratio solve (count "engine.propagations"));
      ("engine.us_per_leaf", 1e6 *. ratio solve leaves);
      ("io.parse_s", time "load");
      ("io.parse_mb_per_s", ratio (count "io.bytes" /. 1048576.) (time "load"));
      ("prenex.apply_s", time "prenex");
      ("proof.solve_s", proof_solve);
      ("proof.overhead_ratio", ratio proof_solve solve);
      ("check.steps_per_s", ratio (count "check.steps") check);
      ("check.mb_per_s", ratio (count "proof.bytes" /. 1048576.) check);
      ("check.ratio_to_solve", ratio check proof_solve);
      ("serve.queue_wait_p50_s", pct 0.5 "queue_wait");
      ("serve.queue_wait_p90_s", pct 0.9 "queue_wait");
      ("serve.overhead_p50_s", pct 0.5 "overhead");
      ("serve.solve_p50_s", pct 0.5 "job_solve");
      ("serve.cache_hit_ratio", ratio (count "serve.cache_hits") (count "serve.jobs"));
      ("serve.dispatch_yield",
        ratio (count "serve.answered_uncached") (count "serve.dispatches"));
      ("trace.overhead_ratio", if traced = [] then 0. else ratio traced_wall wall);
    ]
    @ List.concat_map
        (fun m ->
          [ ("dia." ^ m ^ ".iter_s", time ("dia." ^ m ^ ".iter_s"));
            ("dia." ^ m ^ ".final_bound_s", time ("dia." ^ m ^ ".final_bound_s")) ])
        dia_models
    @ List.map
        (fun ph -> ("engine." ^ ph ^ "_s", if traced = [] then 0. else profile ph))
        profile_phases
    @ List.map
        (fun s ->
          ( "trace.self." ^ s ^ "_s",
            median (List.map (fun l -> Option.value ~default:0. (List.assoc_opt s l)) self) ))
        span_names
  in
  List.map
    (fun name ->
      let value =
        match List.assoc_opt name values with
        | Some v -> v
        | None -> count name
      in
      { name; value; unit_ = unit_of name })
    (end_to_end @ per_layer_names)

(* ------------------------------------------------------------------ *)
(* Output *)

let json_metric m =
  Printf.sprintf {|"%s": {"value": %.17g, "unit": "%s"}|} m.name
    (if Float.is_finite m.value then m.value else 0.)
    m.unit_

let json_string s = Qbf_obs.Json.to_string (Qbf_obs.Json.String s)

let write_file path text =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc text)

let () =
  let o = parse_args () in
  stop_on_signal ();
  if not (Sys.file_exists o.work) then Sys.mkdir o.work 0o755;
  (* Set up several times; setup_s is the median.  The parent keeps the
     first set-up; further rounds run in a child, so the heap the passes
     inherit does not depend on how often set-up was repeated.  A child
     makes at least two rounds and goes on until 0.4 s have gone: a
     short set-up's first round in a fresh child pays its copy-on-write
     faults, and five rounds keep that one out of the median. *)
  let t0 = Span.now () in
  let s = setup o ~smoke:o.smoke ~fault:o.fault in
  let first = Span.now () -. t0 in
  let setup_times =
    if o.smoke then [ first ]
    else
      let rounds () =
        let t0 = Span.now () in
        let rec go acc =
          let acc = setup_round o ~min_s:0.1 :: acc in
          if List.length acc >= 2 && Span.now () -. t0 >= 0.4 then acc else go acc
        in
        go []
      in
      match in_child o rounds with
      | Ok more -> first :: List.rev more
      | Error e -> failwith ("set-up: " ^ e)
  in
  (* warm-up: a small pass whose measurements are discarded *)
  if not o.smoke then
    ignore
      (in_child o (fun () ->
           run_pass o (setup o ~smoke:true ~fault:false) (Pass.create ~traced:false ~pass:0)));
  (* With --trace 1, untraced and traced passes alternate, so both kinds
     see the same host conditions; at least one of each runs. *)
  Gc.full_major ();
  let start = Span.now () in
  let rec passes id =
    let traced = o.trace && id mod 2 = 0 in
    let enough = id > 2 || (id = 2 && not o.trace) in
    if enough && Span.now () -. start >= o.seconds then id - 1
    else if fork_pass o s ~traced ~id then passes (id + 1)
    else id
  in
  let results : (Pass.result, string) result list =
    List.init (passes 1) (fun i -> read_result (pass_file o (i + 1)))
  in
  let errors = List.filter_map (function Error e -> Some e | Ok _ -> None) results in
  let all = List.filter_map (function Ok r -> Some r | Error _ -> None) results in
  let untraced, traced = List.partition (fun (r : Pass.result) -> not r.traced) all in
  (* trajectory: every pass must repeat the first one exactly *)
  let prints = List.map (fingerprint o.workload) all in
  let drift =
    match prints with
    | p0 :: rest -> List.length (List.filter (( <> ) p0) rest)
    | [] -> 0
  in
  let failures =
    errors
    @ List.concat_map (fun (r : Pass.result) -> r.failures) all
    @ (if drift > 0 then [ Printf.sprintf "%d passes left the first pass's trajectory" drift ]
       else [])
  in
  let attempted =
    List.fold_left (fun a (r : Pass.result) -> a + r.attempted) 0 all
    + List.length all + List.length errors
  in
  let failed = List.length failures in
  let metrics =
    compute o ~setup_times ~untraced ~traced ~failed ~attempted
  in
  (* a record of the run, with its spans, beside the scratch files *)
  let tag = Printf.sprintf "%s-seed%d-trace%d" o.workload o.seed (if o.trace then 1 else 0) in
  let env =
    [
      ("workload", json_string o.workload);
      ("seed", string_of_int o.seed);
      ("smoke", string_of_bool o.smoke);
      ("commit", json_string o.commit);
      ("ocaml", json_string Sys.ocaml_version);
      ("cores", string_of_int (Domain.recommended_domain_count ()));
      ("passes", string_of_int (List.length untraced));
      ("traced_passes", string_of_int (List.length traced));
      ("fingerprint", json_string (match prints with p :: _ -> p | [] -> ""));
    ]
  in
  write_file
    (Filename.concat o.work ("result-" ^ tag ^ ".json"))
    (Printf.sprintf "{%s, \"failures\": [%s], \"metrics\": {%s}}\n"
       (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) env))
       (String.concat ", " (List.map json_string failures))
       (String.concat ", " (List.map json_metric metrics)));
  if traced <> [] then
    write_file
      (Filename.concat o.work ("spans-" ^ tag ^ ".jsonl"))
      (String.concat ""
         (List.concat_map
            (fun (r : Pass.result) -> List.map (fun s -> Span.to_json s ^ "\n") r.spans)
            traced));
  (* human-readable report *)
  List.iter (fun (k, v) -> Printf.printf "# %s %s\n" k v) env;
  (match all with
  | r :: _ ->
      List.iter
        (fun k ->
          Printf.printf "# count %s %d\n" k
            (Option.value ~default:0 (List.assoc_opt k r.counts)))
        (trajectory_counts o.workload)
  | [] -> ());
  Printf.printf "# pass walls %s\n# pass heap_mb %s\n"
    (String.concat " " (List.map (fun (r : Pass.result) -> Printf.sprintf "%.3f" r.wall) all))
    (String.concat " " (List.map (fun (r : Pass.result) -> Printf.sprintf "%.4f" r.heap_mb) all));
  (match untraced with
  | r :: _ ->
      List.iter
        (fun (k, l) -> Printf.printf "# samples %s %d per pass\n" k (List.length l))
        r.samples
  | [] -> ());
  Printf.printf "# setup rounds %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.6f") setup_times));
  List.iter (fun f -> Printf.printf "# FAILED %s\n" f) failures;
  List.iter
    (fun m -> Printf.printf "%-28s %16.6f %s\n" m.name m.value m.unit_)
    metrics;
  let wanted = if o.trace then per_layer_names else end_to_end in
  let shown = List.filter (fun m -> List.mem m.name wanted) metrics in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) attempted failed
    (String.concat ", " (List.map json_metric shown));
  exit (if failed = 0 then 0 else 1)
