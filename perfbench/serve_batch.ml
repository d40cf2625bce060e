(* serve-batch: one closed batch through Qbf_serve.Supervisor under
   qubed's default policy (2 workers racing po-watched and to-watched,
   cache on, worker stats on, no proof directory).  The jobs are inline
   prenexed NCF instances at the critical ratio; about one in six is an
   exact duplicate of another job.  Every answer must equal the
   reference fixed at setup by a certified solve whose certificate the
   independent checker accepted.

   The instance pool is fixed (generator seeds 1..100, as in
   lib/bench/serve.ml): the family's cost is heavy-tailed, and a pool
   drawn per seed made one batch twice as long as another.  Seed 92 is
   left out: it makes a 3-4 s instance on which PO and TO finish within
   a few percent of each other, so that one job was 35-40% of a pass and
   its race set most of the pass-to-pass spread (8.3-12.2 s).  The
   workload seed draws the submission order and which instances are
   duplicated, so every seed does the same solving work. *)

module ST = Qbf_solver.Solver_types
module Supervisor = Qbf_serve.Supervisor

type setup = {
  jobs : Qbf_serve.Protocol.job list;
  reference : ST.outcome option array; (* by job id; None: unchecked *)
}

let pool = List.filter (( <> ) 92) (List.init 100 (fun i -> i + 1))

let instance gen_seed =
  let rng = Qbf_gen.Rng.create gen_seed in
  let f = Qbf_gen.Ncf.generate_ratio rng ~dep:6 ~var:6 ~ratio:2.2 ~lpc:4 in
  Qbf_prenex.Prenexing.(apply e_up_a_up f)

(* Certified solve plus independent check: the reference answer, or
   [None] when the certified solve concluded through a step the trace
   cannot record ("proof incomplete") and so left no certificate.  Such
   jobs stay in the batch; their answers go unchecked and are counted
   (serve.unchecked_jobs). *)
let reference ~work k f =
  let base = Filename.concat work (Printf.sprintf "serve_%d" k) in
  let formula_path = base ^ ".qdimacs" and proof_path = base ^ ".qproof" in
  Qbf_io.Qdimacs.write_file formula_path f;
  let proof = Qbf_solver.Proof.create ~path:proof_path in
  let r =
    Fun.protect
      ~finally:(fun () -> Qbf_solver.Proof.close proof)
      (fun () -> Qbf_solver.Engine.solve ~proof f)
  in
  let verdict = Qbf_check.Checker.check_against ~formula_path proof_path in
  Sys.remove formula_path;
  Sys.remove proof_path;
  match (r.outcome, r.witness, verdict) with
  | (ST.True | ST.False), ST.Proof_trace _, Ok { conclusions; _ }
    when conclusions <> []
         && List.for_all (( = ) (r.outcome = ST.True)) conclusions ->
      Some r.outcome
  | (ST.True | ST.False), ST.No_witness, _ -> None
  | _ -> failwith (Printf.sprintf "serve-batch instance %d: no checked answer" k)

let setup ~smoke ~fault ~seed ~work =
  let seeds = if smoke then List.filteri (fun i _ -> i < 6) pool else pool in
  let formulas = Array.of_list (List.map instance seeds) in
  let unique = Array.length formulas in
  (* 120 jobs, about one in six a duplicate *)
  let dups = if smoke then 1 else 120 - unique in
  let answers = Array.mapi (reference ~work) formulas in
  let rng = Qbf_gen.Rng.create seed in
  let order =
    Qbf_gen.Rng.shuffle rng
      (Array.append (Array.init unique Fun.id)
         (Array.init dups (fun _ -> Qbf_gen.Rng.int rng unique)))
  in
  let texts = Array.map Qbf_io.Qdimacs.to_string formulas in
  let jobs =
    Array.to_list
      (Array.mapi
         (fun id k -> Qbf_serve.Protocol.job ~id (Qbf_run.Run.Inline texts.(k)))
         order)
  in
  let reference = Array.map (fun k -> answers.(k)) order in
  (* the self-test's wrong oracle: flip every checked reference *)
  if fault then
    Array.iteri
      (fun i r ->
        reference.(i) <-
          Option.map (fun o -> if o = ST.True then ST.False else ST.True) r)
      reference;
  { jobs; reference }

let counter (s : Supervisor.summary) k =
  Option.value ~default:0 (List.assoc_opt k s.s_counters)

(* the engine counters a worker's metrics snapshot carries *)
let metric_counters =
  List.filter (( <> ) "chrono_fallbacks") (List.map fst Pass.engine_counters)

let run ~seed (setup : setup) (p : Pass.t) =
  let t0 = Span.now () in
  let on_report (r : Supervisor.report) =
    let latency = Span.now () -. t0 in
    Pass.add_sample p "latency" latency;
    Pass.add_sample p "queue_wait" (latency -. r.r_wall);
    if not r.r_cached then begin
      Pass.add_sample p "overhead" (r.r_wall -. r.r_time);
      Pass.add_sample p "job_solve" r.r_time;
      Pass.add_time p "solve" r.r_time;
      Pass.add_count p "serve.answered_uncached" 1;
      Pass.add_count p "engine.winner_decisions" r.r_decisions;
      Pass.add_count p "engine.winner_leaves" r.r_nodes
    end;
    (* engine work of every attempt, cancelled racers included *)
    List.iter
      (fun (a : Supervisor.attempt_stats) ->
        match a.as_metrics with
        | None -> ()
        | Some m ->
            List.iter
              (fun k ->
                Pass.add_count p ("engine." ^ k)
                  (Option.value ~default:0 (List.assoc_opt k m.counters)))
              metric_counters)
      r.r_attempt_stats;
    (match p.profile with
    | Some _ ->
        List.iter
          (fun (a : Supervisor.attempt_stats) ->
            Option.iter
              (List.iter (fun (s : Qbf_obs.Profile.span_snapshot) ->
                   Pass.add_time p ("profile." ^ s.phase) s.wall_s))
              a.as_profile)
          r.r_attempt_stats
    | None -> ());
    let expect = setup.reference.(r.r_id) in
    Pass.check p
      (r.r_error = None
      && (r.r_outcome = ST.True || r.r_outcome = ST.False)
      && Option.fold ~none:true ~some:(( = ) r.r_outcome) expect)
      (Printf.sprintf "serve-batch job %d: %s (%s), reference %s" r.r_id
         (Qbf_solver.Outcome.to_string r.r_outcome)
         (Option.value ~default:"no error" r.r_error)
         (Option.fold ~none:"none" ~some:Qbf_solver.Outcome.to_string expect));
    if expect = None then Pass.add_count p "serve.unchecked_jobs" 1;
    Pass.answer p
      (Printf.sprintf "job %d %s" r.r_id (Qbf_solver.Outcome.to_string r.r_outcome))
  in
  let (reports, summary), _ =
    Span.with_ p.trace "supervisor" (fun () ->
        Supervisor.run
          ~policy:{ Supervisor.default_policy with seed }
          ~on_report setup.jobs)
  in
  Pass.check p
    (List.length reports = List.length setup.jobs)
    (Printf.sprintf "serve-batch reported %d of %d jobs" (List.length reports)
       (List.length setup.jobs));
  Pass.add_count p "serve.jobs" (List.length setup.jobs);
  List.iter
    (fun k -> Pass.add_count p ("serve." ^ k) (counter summary k))
    [ "dispatches"; "retries"; "spawns"; "cache_hits" ];
  Pass.add_count p "serve.failures"
    (List.fold_left
       (fun acc l -> acc + counter summary ("failures_" ^ l))
       0 Qbf_run.Failure.all_labels)
