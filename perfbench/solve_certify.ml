(* solve-certify: the qube + qcheck_proof path on files.  Every corpus
   entry is loaded and solved uncertified, solved again with a
   Q-resolution trace, and its certificate replayed by the independent
   checker against a formula file.  Answers must match the known ones
   and every certificate must be accepted. *)

module ST = Qbf_solver.Solver_types
module Prenexing = Qbf_prenex.Prenexing

type entry = {
  label : string;
  path : string; (* what the solver loads *)
  prenex : bool; (* solve the EupAup prenexing of the file, with TO *)
  check_path : string; (* the formula the certificate must match *)
  expect : bool;
}

type setup = entry list

(* Known answers of the committed examples, each also confirmed by an
   accepted certificate in every pass.  ncf_hard is left out: it is the
   timeout probe and never finishes. *)
let examples =
  [
    ("dia_counter2_n3.nqdimacs", false);
    ("ncf_d6v4.qdimacs", false);
    ("ncf_small.nqdimacs", false);
    ("random_prenex.qdimacs", false);
  ]

let expand_limit = 27

let setup ~smoke ~fault ~root ~work =
  (* gray3 phi_7 (smoke: gray2 phi_3): phi_n is false for n >= the BFS
     diameter, so phi_d is false *)
  let name = if smoke then "gray2" else "gray3" in
  let model = Qbf_models.Families.by_name name in
  let d = Qbf_models.Reach.diameter model in
  let f = Qbf_models.Diameter.phi model ~n:d in
  let base = Filename.concat work (Printf.sprintf "%s_phi%d" name d) in
  let nq = base ^ ".nqdimacs" and pq = base ^ "_EupAup.qdimacs" in
  Qbf_io.Nqdimacs.write_file nq f;
  Qbf_io.Qdimacs.write_file pq (Prenexing.apply Prenexing.e_up_a_up f);
  let phi ~prenex =
    {
      label = Printf.sprintf "%s_phi%d.%s" name d (if prenex then "to" else "po");
      path = nq;
      prenex;
      check_path = (if prenex then pq else nq);
      expect = false;
    }
  in
  let ex =
    List.map
      (fun (file, expect) ->
        let path = Filename.concat root (Filename.concat "examples/instances" file) in
        (* small enough for the expansion oracle: confirm the pinned answer *)
        let f = Qbf_run.Run.load_exn path in
        if Qbf_core.Formula.nvars f <= expand_limit then
          if Qbf_core.Eval.eval ~max_vars:expand_limit f <> expect then
            failwith (file ^ ": expansion disagrees with the pinned answer");
        { label = file; path; prenex = false; check_path = path; expect })
      examples
  in
  let entries = phi ~prenex:false :: phi ~prenex:true :: ex in
  if fault then
    match entries with
    | e :: rest -> { e with expect = not e.expect } :: rest
    | [] -> []
  else entries

let file_size path = (Unix.stat path).Unix.st_size

let run ~work (setup : setup) (p : Pass.t) =
  List.iter
    (fun e ->
      let failed what = Pass.check p false (e.label ^ ": " ^ what) in
      match Pass.timed p "load" (fun () -> Qbf_run.Run.load e.path) with
      | Error err -> failed (Qbf_run.Run_error.to_string err)
      | Ok f ->
          Pass.add_count p "io.bytes" (file_size e.path);
          let f =
            if e.prenex then
              Pass.timed p "prenex" (fun () ->
                  Prenexing.apply Prenexing.e_up_a_up f)
            else f
          in
          let heuristic = if e.prenex then ST.Total_order else ST.Partial_order in
          let config = Pass.config p ST.(default_config |> with_heuristic heuristic) in
          let expect = if e.expect then ST.True else ST.False in
          let r =
            Pass.timed p "solve" (fun () ->
                Qbf_solver.Session.one_shot ~config f)
          in
          Pass.add_stats p r.stats;
          Pass.check p (r.outcome = expect)
            (Printf.sprintf "%s: solved %s" e.label (Qbf_solver.Outcome.to_string r.outcome));
          Pass.answer p (e.label ^ " " ^ Qbf_solver.Outcome.to_string r.outcome);
          let proof_path = Filename.concat work (e.label ^ ".qproof") in
          let proof = Qbf_solver.Proof.create ~path:proof_path in
          let rp =
            Fun.protect
              ~finally:(fun () -> Qbf_solver.Proof.close proof)
              (fun () ->
                Pass.timed p "proof_solve" (fun () ->
                    Qbf_solver.Engine.solve ~config ~proof f))
          in
          Pass.check p (rp.outcome = expect)
            (Printf.sprintf "%s: certified solve %s" e.label
               (Qbf_solver.Outcome.to_string rp.outcome));
          (match rp.witness with
          | ST.No_witness -> failed "certified solve left no certificate"
          | ST.Proof_trace { steps; _ } -> (
              Pass.add_count p "proof.steps" steps;
              Pass.add_count p "proof.bytes" (file_size proof_path);
              match
                Pass.timed p "check" (fun () ->
                    Qbf_check.Checker.check_against ~formula_path:e.check_path
                      proof_path)
              with
              | Error { line; msg } ->
                  failed (Printf.sprintf "certificate rejected at record %d: %s" line msg)
              | Ok v ->
                  Pass.add_count p "check.steps" v.steps;
                  Pass.check p
                    (v.conclusions <> [] && List.for_all (( = ) e.expect) v.conclusions)
                    (e.label ^ ": certificate concludes the wrong answer")));
          Sys.remove proof_path)
    setup
