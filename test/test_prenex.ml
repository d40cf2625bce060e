(* Prenexing-strategy and miniscoping tests, including the paper's
   formula (9) / eq. (10) worked example. *)

open Qbf_core
module P = Qbf_prenex.Prenexing
module M = Qbf_prenex.Miniscope

(* Formula (9): ∃x(∀y1∃x1∀y2∃x2 ϕ0 ∧ ∀y'1∃x'1 ϕ1 ∧ ∃x''1 ϕ2).
   Variable ids: x=0 y1=1 x1=2 y2=3 x2=4 y'1=5 x'1=6 x''1=7. *)
let formula_9 () =
  let tree =
    Prefix.node Quant.Exists [ 0 ]
      [
        Prefix.node Quant.Forall [ 1 ]
          [
            Prefix.node Quant.Exists [ 2 ]
              [
                Prefix.node Quant.Forall [ 3 ]
                  [ Prefix.node Quant.Exists [ 4 ] [] ];
              ];
          ];
        Prefix.node Quant.Forall [ 5 ] [ Prefix.node Quant.Exists [ 6 ] [] ];
        Prefix.node Quant.Exists [ 7 ] [];
      ]
  in
  let prefix = Prefix.of_forest ~nvars:8 [ tree ] in
  (* A matrix exercising each path (contents are irrelevant for the
     prefix computation, but keep it path-consistent). *)
  let matrix =
    [
      (* phi0 over the x,y1,x1,y2,x2 path *)
      Util.clause [ 1; -2; 3; -4; 5 ];
      Util.clause [ -1; 2; -3 ];
      (* phi1 over the x,y'1,x'1 path *)
      Util.clause [ -6; 7; 1 ];
      (* phi2 over the x,x''1 path *)
      Util.clause [ 8; -1 ];
    ]
  in
  Formula.make prefix matrix

let blocks_of f =
  Prefix.blocks_outermost_first (Formula.prefix f)
  |> List.map (fun (q, vs) -> (q, List.sort Int.compare vs))

let check_blocks name expected got =
  Alcotest.(check bool)
    name true
    (List.length expected = List.length got
    && List.for_all2
         (fun (q, vs) (q', vs') -> Quant.equal q q' && vs = vs')
         expected got)

(* Eq. (10) of the paper. *)
let test_eq10 () =
  let f = formula_9 () in
  let e = Quant.Exists and a = Quant.Forall in
  check_blocks "EupAup"
    [ (e, [ 0; 7 ]); (a, [ 1; 5 ]); (e, [ 2; 6 ]); (a, [ 3 ]); (e, [ 4 ]) ]
    (blocks_of (P.apply P.e_up_a_up f));
  check_blocks "EupAdown"
    [ (e, [ 0; 7 ]); (a, [ 1; 5 ]); (e, [ 2; 6 ]); (a, [ 3 ]); (e, [ 4 ]) ]
    (blocks_of (P.apply P.e_up_a_down f));
  check_blocks "EdownAup"
    [ (e, [ 0 ]); (a, [ 1; 5 ]); (e, [ 2 ]); (a, [ 3 ]); (e, [ 4; 6; 7 ]) ]
    (blocks_of (P.apply P.e_down_a_up f));
  check_blocks "EdownAdown"
    [ (e, [ 0 ]); (a, [ 1 ]); (e, [ 2 ]); (a, [ 3; 5 ]); (e, [ 4; 6; 7 ]) ]
    (blocks_of (P.apply P.e_down_a_down f))

let test_prenex_paper_formula_1 () =
  (* ∃↑∀↑ on formula (1) gives prefix (7): x0 ≺ y1,y2 ≺ x1,x2,x3,x4. *)
  let f = Util.paper_formula_1 () in
  let g = P.apply P.e_up_a_up f in
  check_blocks "prefix (7)"
    [
      (Quant.Exists, [ 0 ]);
      (Quant.Forall, [ 1; 4 ]);
      (Quant.Exists, [ 2; 3; 5; 6 ]);
    ]
    (blocks_of g)

let make_tree_formula (seed, nvars, nclauses, len) =
  let rng = Qbf_gen.Rng.create seed in
  Qbf_gen.Randqbf.tree rng ~nvars ~nclauses ~len ()

let gen_params =
  QCheck2.Gen.(
    let* seed = int_range 0 10_000_000 in
    let* nvars = int_range 1 12 in
    let* nclauses = int_range 0 20 in
    let* len = int_range 1 4 in
    return (seed, nvars, nclauses, len))

(* Prenexing contract: prenex output, same quantifiers, order extended,
   prenex-optimal level, value preserved. *)
let prop_prenex_contract strategy input =
  let f = make_tree_formula input in
  let g = P.apply strategy f in
  let p = Formula.prefix f and p' = Formula.prefix g in
  Prefix.is_prenex p'
  && P.extends p p'
  && Prefix.prefix_level p' <= Prefix.prefix_level p + 1
  && Eval.eval f = Eval.eval g

(* Prenex-optimality (level equality) holds when the deepest blocks are
   existential; our generator does not guarantee that, so the +1 slack
   above covers the universal-deepest case.  For value preservation we
   additionally solve both with the solver. *)
let prop_prenex_solver_agrees strategy input =
  let f = make_tree_formula input in
  let g = P.apply strategy f in
  let r = Qbf_solver.Engine.solve f and r' = Qbf_solver.Engine.solve g in
  r.Qbf_solver.Solver_types.outcome = r'.Qbf_solver.Solver_types.outcome

(* Miniscoping contract: value preserved, order only relaxed (the new
   partial order is contained in the old one restricted to surviving
   structure), path consistency maintained. *)
let prop_miniscope_contract input =
  let seed, nvars, nclauses, len = input in
  let rng = Qbf_gen.Rng.create seed in
  let f =
    Qbf_gen.Randqbf.prenex rng ~nvars
      ~levels:(1 + (seed mod 4))
      ~nclauses ~len ~min_exists:1 ()
  in
  let g = M.minimize f in
  Formula.path_consistent g
  && Eval.eval f = Eval.eval g
  &&
  (* no new order is invented between surviving variables *)
  let p = Formula.prefix f and p' = Formula.prefix g in
  let occurs = Array.make nvars false in
  List.iter
    (fun c -> List.iter (fun v -> occurs.(v) <- true) (Clause.vars c))
    (Formula.matrix g);
  let ok = ref true in
  for a = 0 to nvars - 1 do
    for b = 0 to nvars - 1 do
      (* An opposite-quantifier pair ordered after miniscoping must have
         been ordered before (miniscoping only relaxes the order).  The
         check skips variables that dropped out of all clauses (they are
         re-bound as irrelevant free existentials) and same-quantifier
         pairs, whose computed order is conservative. *)
      if
        occurs.(a) && occurs.(b)
        && (not (Quant.equal (Prefix.quant p' a) (Prefix.quant p' b)))
        && Prefix.precedes p' a b
        && not (Prefix.precedes p a b)
      then ok := false
    done
  done;
  !ok

let test_miniscope_example () =
  (* ∃x0 ∀y1,y2 ∃x1,x2 with two independent halves: miniscoping must
     split y1/x1 from y2/x2 (this is prefix (7) -> the tree of formula
     (1), the paper's motivating direction). *)
  let f = Util.paper_formula_1_prenex () in
  let g = M.minimize f in
  let p = Formula.prefix g in
  Alcotest.(check bool) "not prenex anymore" false (Prefix.is_prenex p);
  Alcotest.(check bool) "y1 no longer orders x3" false
    (Prefix.precedes p 1 5 || Prefix.precedes p 5 1);
  Alcotest.(check bool) "y2 no longer orders x1" false
    (Prefix.precedes p 4 2 || Prefix.precedes p 2 4);
  Alcotest.(check bool) "y1 still orders x1" true (Prefix.precedes p 1 2);
  Alcotest.(check bool) "value preserved" true
    (Eval.eval f = Eval.eval g);
  let ratio = M.po_to_ratio ~original:f ~miniscoped:g in
  Alcotest.(check bool) "PO/TO ratio substantial" true (ratio > 20.)

let test_miniscope_drops_single_scope () =
  (* ∃x ∀y: clause {x} plus clause {y, e} where e occurs only there:
     after miniscoping, the clause containing the innermost single-
     occurrence existential e disappears. *)
  let p =
    Prefix.of_blocks ~nvars:3
      [ (Quant.Exists, [ 0 ]); (Quant.Forall, [ 1 ]); (Quant.Exists, [ 2 ]) ]
  in
  let f = Formula.make p [ Util.clause [ 1 ]; Util.clause [ 2; 3 ] ] in
  let g = M.minimize f in
  (* Both clauses are removable: {x} is made true by the innermost
     single-occurrence existential x, {y,e} by e. *)
  Alcotest.(check int) "no clauses left" 0 (Formula.num_clauses g);
  Alcotest.(check bool) "value preserved" true (Eval.eval f = Eval.eval g)

(* Applying a strategy twice changes nothing (prenex fixpoint). *)
let prop_prenex_idempotent strategy input =
  let f = make_tree_formula input in
  let once = P.apply strategy f in
  let twice = P.apply strategy once in
  blocks_of once = blocks_of twice

(* Miniscoping then re-prenexing preserves the value (full loop). *)
let prop_miniscope_prenex_loop input =
  let seed, nvars, nclauses, len = input in
  let rng = Qbf_gen.Rng.create seed in
  let f =
    Qbf_gen.Randqbf.prenex rng ~nvars
      ~levels:(1 + (seed mod 4))
      ~nclauses ~len ~min_exists:1 ()
  in
  let loop = P.apply P.e_up_a_up (M.minimize f) in
  Prefix.is_prenex (Formula.prefix loop) && Eval.eval f = Eval.eval loop

let suite =
  let strategy_cases =
    List.concat_map
      (fun (name, st) ->
        [
          Util.qcheck_case ~count:150
            (Printf.sprintf "prenex contract %s" name)
            gen_params (prop_prenex_contract st);
          Util.qcheck_case ~count:100
            (Printf.sprintf "solver agrees after %s" name)
            gen_params (prop_prenex_solver_agrees st);
        ])
      P.all
  in
  [
    Alcotest.test_case "eq. (10) strategies on formula (9)" `Quick test_eq10;
    Alcotest.test_case "EupAup on formula (1)" `Quick
      test_prenex_paper_formula_1;
    Alcotest.test_case "miniscoping splits prefix (7)" `Quick
      test_miniscope_example;
    Alcotest.test_case "single-scope clause removal" `Quick
      test_miniscope_drops_single_scope;
    Util.qcheck_case ~count:200 "miniscope contract" gen_params
      prop_miniscope_contract;
    Util.qcheck_case ~count:150 "prenexing is idempotent" gen_params
      (prop_prenex_idempotent P.e_up_a_up);
    Util.qcheck_case ~count:150 "miniscope-prenex loop preserves value"
      gen_params prop_miniscope_prenex_loop;
  ]
  @ strategy_cases
