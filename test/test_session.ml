(* Incremental sessions: push/pop retraction of frame-tagged learned
   constraints, cube invalidation on matrix growth, prefix extension,
   assumptions — each checked against the expansion oracle or by
   white-box inspection of the constraint database. *)

open Qbf_core
module ST = Qbf_solver.Solver_types
module Session = Qbf_solver.Session
module S = Qbf_solver.State
module Db = Qbf_solver.Constraint_db
module Vec = Qbf_solver.Vec

let ( => ) b v = Alcotest.check Util.outcome b (Util.solver_outcome_of_bool v)

(* Random extension clauses, each with at least one existential literal
   (an all-universal clause is contradictory by Lemma 4 and ends the
   search on the spot, exercising nothing). *)
let random_clauses rng prefix ~nvars ~n =
  let evars =
    List.filter (Prefix.is_exists prefix) (List.init nvars (fun v -> v))
  in
  List.init n (fun _ ->
      let width = 2 + Qbf_gen.Rng.int rng 3 in
      let e = List.nth evars (Qbf_gen.Rng.int rng (List.length evars)) in
      Lit.make e (Qbf_gen.Rng.int rng 2 = 0)
      :: List.init (width - 1) (fun _ ->
             Lit.make (Qbf_gen.Rng.int rng nvars) (Qbf_gen.Rng.int rng 2 = 0)))

(* Solve / push+add / solve / pop / solve, each step against the
   oracle.  Prenex formulas only: added clauses may span any variable
   pair, which stays path-consistent only on a chain prefix. *)
let test_push_pop_oracle () =
  for seed = 0 to 39 do
    let rng = Qbf_gen.Rng.create (1000 + seed) in
    let nvars = 4 + Qbf_gen.Rng.int rng 8 in
    let f0 =
      Qbf_gen.Randqbf.prenex rng ~nvars
        ~levels:(1 + (seed mod 4))
        ~nclauses:(6 + Qbf_gen.Rng.int rng 12)
        ~len:3 ~min_exists:(seed mod 3) ()
    in
    let t = Session.of_formula ~validate:true f0 in
    ("base " ^ string_of_int seed => Eval.eval f0) (Session.solve t).ST.outcome;
    let extra =
      random_clauses rng (Formula.prefix f0) ~nvars
        ~n:(2 + Qbf_gen.Rng.int rng 4)
    in
    let f1 =
      Formula.make (Formula.prefix f0)
        (List.map Clause.of_list extra @ Formula.matrix f0)
    in
    Session.push t;
    List.iter (Session.add_clause t) extra;
    ("pushed " ^ string_of_int seed => Eval.eval f1)
      (Session.solve t).ST.outcome;
    Session.pop t;
    ("popped " ^ string_of_int seed => Eval.eval f0)
      (Session.solve t).ST.outcome;
    Session.dispose t
  done

(* After a pop, no active constraint may carry a deeper frame — that is
   precisely "retract the dependent learned constraints, keep the rest".
   Also asserts the scenario exercises learning inside the frame at
   least once across the seeds. *)
let test_frame_tag_retraction () =
  let learned_in_frame = ref 0 in
  for seed = 0 to 29 do
    let rng = Qbf_gen.Rng.create (2000 + seed) in
    let nvars = 6 + Qbf_gen.Rng.int rng 6 in
    let f0 =
      Qbf_gen.Randqbf.prenex rng ~nvars ~levels:3
        ~nclauses:(8 + Qbf_gen.Rng.int rng 10)
        ~len:3 ~min_exists:1 ()
    in
    let t = Session.of_formula ~validate:true f0 in
    ignore (Session.solve t);
    Session.push t;
    List.iter (Session.add_clause t)
      (random_clauses rng (Formula.prefix f0) ~nvars
         ~n:(3 + Qbf_gen.Rng.int rng 4));
    ignore (Session.solve t);
    let s = Session.state_for_testing t in
    let db = s.S.db in
    for cid = 0 to Db.size db - 1 do
      if Db.active db cid && Db.learned db cid && Db.frame db cid > 0 then
        incr learned_in_frame
    done;
    Session.pop t;
    for cid = 0 to Db.size db - 1 do
      if Db.active db cid then
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: active constraint %d at frame <= 0" seed
             cid)
          true (Db.frame db cid <= 0)
    done;
    ("after retraction " ^ string_of_int seed => Eval.eval f0)
      (Session.solve t).ST.outcome;
    Session.dispose t
  done;
  Alcotest.(check bool) "some learned constraint depended on the frame" true
    (!learned_in_frame > 0)

(* Matrix growth must drop every cube learned before it (they certify
   the old matrix); learned clauses survive. *)
let test_cube_invalidation () =
  let invalidated = ref 0 in
  for seed = 0 to 29 do
    let rng = Qbf_gen.Rng.create (3000 + seed) in
    let nvars = 5 + Qbf_gen.Rng.int rng 7 in
    let f0 =
      Qbf_gen.Randqbf.prenex rng ~nvars ~levels:3
        ~nclauses:(4 + Qbf_gen.Rng.int rng 8)
        ~len:3 ~min_exists:2 ()
    in
    let t = Session.of_formula ~validate:true f0 in
    ignore (Session.solve t);
    let s = Session.state_for_testing t in
    let db = s.S.db in
    (* Invalidated cubes are compacted away at the next flush, so stale
       ids cannot be re-inspected; count them and check the retraction
       counter instead (retract_constraint bumps it per cube). *)
    let old_cubes = ref 0 in
    for cid = 0 to Db.size db - 1 do
      if Db.active db cid && Db.is_cube db cid then incr old_cubes
    done;
    let retracted_before = s.S.retracted_constraints in
    let extra = random_clauses rng (Formula.prefix f0) ~nvars ~n:2 in
    let f1 =
      Formula.make (Formula.prefix f0)
        (List.map Clause.of_list extra @ Formula.matrix f0)
    in
    List.iter (Session.add_clause t) extra;
    ("grown " ^ string_of_int seed => Eval.eval f1)
      (Session.solve t).ST.outcome;
    invalidated := !invalidated + !old_cubes;
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: every pre-growth cube was invalidated" seed)
      true
      (s.S.retracted_constraints - retracted_before >= !old_cubes);
    Session.dispose t
  done;
  Alcotest.(check bool) "some cube was actually invalidated" true
    (!invalidated > 0)

(* Assumptions = an ephemeral frame of unit clauses: the call decides
   formula ∧ assumptions and leaves no trace behind. *)
let test_assumptions () =
  for seed = 0 to 29 do
    let rng = Qbf_gen.Rng.create (4000 + seed) in
    let nvars = 4 + Qbf_gen.Rng.int rng 8 in
    let f0 =
      Qbf_gen.Randqbf.prenex rng ~nvars ~levels:2
        ~nclauses:(5 + Qbf_gen.Rng.int rng 10)
        ~len:3 ~min_exists:2 ()
    in
    let t = Session.of_formula ~validate:true f0 in
    let assumptions =
      List.init
        (1 + Qbf_gen.Rng.int rng 2)
        (fun _ -> Lit.make (Qbf_gen.Rng.int rng nvars) (Qbf_gen.Rng.int rng 2 = 0))
    in
    let f_assumed =
      Formula.make (Formula.prefix f0)
        (List.map (fun l -> Clause.of_list [ l ]) assumptions
        @ Formula.matrix f0)
    in
    ("assumed " ^ string_of_int seed => Eval.eval f_assumed)
      (Session.solve ~assumptions t).ST.outcome;
    ("retracted " ^ string_of_int seed => Eval.eval f0)
      (Session.solve t).ST.outcome;
    Session.dispose t
  done

(* Build the paper's formula (1) in two increments: the first ∀y1
   branch alone is True; adding the second ∀y2 branch and its clauses
   flips the value to False (the full formula's value). *)
let test_incremental_prefix_growth () =
  let t = Session.create ~validate:true () in
  let root = Session.new_block t Quant.Exists in
  let x0 = Session.new_vars t root 1 in
  let b1, y1 = Session.extend_prefix t ~parent:root Quant.Forall 1 in
  let _, x1 = Session.extend_prefix t ~parent:b1 Quant.Exists 2 in
  let x2 = x1 + 1 in
  let l v s = Lit.make v s in
  (* clauses ¬x0∨x1∨x2, ¬y1∨¬x1∨x2, x1∨¬x2, ¬x0∨¬x1∨¬x2 *)
  Session.add_clause t [ l x0 false; l x1 true; l x2 true ];
  Session.add_clause t [ l y1 false; l x1 false; l x2 true ];
  Session.add_clause t [ l x1 true; l x2 false ];
  Session.add_clause t [ l x0 false; l x1 false; l x2 false ];
  ("first branch" => true) (Session.solve t).ST.outcome;
  let b2, y2 = Session.extend_prefix t ~parent:root Quant.Forall 1 in
  let _, x3 = Session.extend_prefix t ~parent:b2 Quant.Exists 2 in
  let x4 = x3 + 1 in
  Session.add_clause t [ l x0 true; l x3 true; l x4 true ];
  Session.add_clause t [ l y2 false; l x3 false; l x4 true ];
  Session.add_clause t [ l x3 true; l x4 false ];
  Session.add_clause t [ l x0 true; l x3 false; l x4 false ];
  ("both branches" => false) (Session.solve t).ST.outcome;
  (* agreement with the one-shot reference on the same formula *)
  let reference = Qbf_solver.Engine.solve (Util.paper_formula_1 ()) in
  Alcotest.check Util.outcome "matches one-shot" reference.ST.outcome
    ST.False;
  Session.dispose t

(* The growth contract is checked when [validate] is on: giving a
   merged same-quantifier only-child a sibling changes ≺ on existing
   variables (the normaliser can no longer merge the chain), which must
   raise instead of silently corrupting learned constraints. *)
let test_validate_rejects_order_change () =
  let t = Session.create ~validate:true () in
  let root = Session.new_block t Quant.Exists in
  let a = Session.new_vars t root 1 in
  let b1, b = Session.extend_prefix t ~parent:root Quant.Exists 1 in
  ignore b1;
  Session.add_clause t [ Lit.make a true; Lit.make b true ];
  ("merged chain" => true) (Session.solve t).ST.outcome;
  let _ = Session.extend_prefix t ~parent:root Quant.Forall 1 in
  Alcotest.check_raises "order change rejected"
    (Invalid_argument
       "Session: prefix extension changed the order on existing variables \
        (0,1) — parenthesis property (eq. 13) violated")
    (fun () -> ignore (Session.solve t))

(* Per-call stats are deltas; [Session.stats] accumulates them. *)
let test_stats_deltas () =
  let f = Util.paper_formula_1 () in
  let t = Session.of_formula ~validate:true f in
  let r1 = Session.solve t in
  let r2 = Session.solve t in
  let total = Session.stats t in
  Alcotest.(check int) "decisions accumulate"
    total.ST.decisions
    (r1.ST.stats.ST.decisions + r2.ST.stats.ST.decisions);
  Alcotest.(check int) "conflicts accumulate"
    total.ST.conflicts
    (r1.ST.stats.ST.conflicts + r2.ST.stats.ST.conflicts);
  Session.dispose t

(* [Engine.solve] and [Session.one_shot] are documented as equivalent:
   same outcome, same stats, and with a proof writer the same trace,
   under both heuristics. *)
let test_one_shot_equivalence () =
  let gray = Qbf_models.Families.gray ~bits:2 in
  let rng = Qbf_gen.Rng.create 4242 in
  let random =
    List.init 8 (fun i ->
        let nvars = 6 + Qbf_gen.Rng.int rng 8 in
        if i mod 2 = 0 then
          Qbf_gen.Randqbf.tree rng ~nvars ~nclauses:(3 * nvars) ~len:3 ()
        else
          Qbf_gen.Randqbf.prenex rng ~nvars ~levels:(2 + (i mod 3))
            ~nclauses:(3 * nvars) ~len:3 ~min_exists:1 ())
  in
  let formulas =
    [
      Util.paper_formula_1 ();
      Qbf_models.Diameter.phi gray ~n:2;
      Qbf_models.Diameter.phi gray ~n:3;
      Qbf_models.Diameter.phi_prenex gray ~n:3;
    ]
    @ random
  in
  let read path =
    let ic = open_in_bin path in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    text
  in
  let steps r =
    match r.ST.witness with
    | ST.Proof_trace { steps; _ } -> Some steps
    | ST.No_witness -> None
  in
  let run solve proof_on =
    let path = Filename.temp_file "test-one-shot" ".qrp" in
    let proof = if proof_on then Some (Qbf_solver.Proof.create ~path) else None in
    let r = solve ?proof () in
    Option.iter Qbf_solver.Proof.close proof;
    let text = read path in
    Sys.remove path;
    (r, text)
  in
  List.iteri
    (fun i f ->
      List.iter
        (fun (hname, h) ->
          List.iter
            (fun proof_on ->
              let config = ST.(default_config |> with_heuristic h) in
              let name =
                Printf.sprintf "formula %d %s proof=%b" i hname proof_on
              in
              let r1, t1 =
                run
                  (fun ?proof () -> Qbf_solver.Engine.solve ~config ?proof f)
                  proof_on
              and r2, t2 =
                run (fun ?proof () -> Session.one_shot ~config ?proof f) proof_on
              in
              Alcotest.check Util.outcome (name ^ ": outcome") r1.ST.outcome
                r2.ST.outcome;
              Alcotest.(check bool) (name ^ ": stats") true
                (r1.ST.stats = r2.ST.stats);
              Alcotest.(check (option int))
                (name ^ ": witness steps") (steps r1) (steps r2);
              Alcotest.(check string) (name ^ ": trace") t1 t2)
            [ false; true ])
        [ ("TO", ST.Total_order); ("PO", ST.Partial_order) ])
    formulas

let suite =
  [
    Alcotest.test_case "push/pop vs oracle" `Quick test_push_pop_oracle;
    Alcotest.test_case "frame-tagged retraction" `Quick
      test_frame_tag_retraction;
    Alcotest.test_case "cube invalidation on growth" `Quick
      test_cube_invalidation;
    Alcotest.test_case "assumptions" `Quick test_assumptions;
    Alcotest.test_case "incremental prefix growth" `Quick
      test_incremental_prefix_growth;
    Alcotest.test_case "validate rejects order change" `Quick
      test_validate_rejects_order_change;
    Alcotest.test_case "stats deltas" `Quick test_stats_deltas;
    Alcotest.test_case "Engine.solve = one_shot" `Quick
      test_one_shot_equivalence;
  ]
