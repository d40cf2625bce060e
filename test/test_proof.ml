(* Certificates end to end: engine-emitted qproof traces must pass the
   independent checker (DB reduction on and off, incremental push/pop),
   and hand-mutated traces — dropped antecedent, wrong pivot, forged
   empty clause, dangling constraint id, truncated file — must be
   rejected with a diagnostic.  Handcrafted traces over a tree-shaped
   prefix pin universal reduction to the quantifier tree: a resolvent
   must drop a universal whose only blocker is in a sibling subtree and
   keep one with a blocker in its scope, including at the interval's
   closed end. *)

open Qbf_core
module ST = Qbf_solver.Solver_types
module Session = Qbf_solver.Session
module Proof = Qbf_solver.Proof
module Checker = Qbf_check.Checker

let with_reduction config =
  ST.(
    config |> with_restarts true |> with_restart_base 2
    |> with_db_reduction true |> with_db_reduce_interval 4
    |> with_db_keep_fraction 0.25)

(* Solve under [config] with a trace attached; the outcome must match
   [expected], the result must carry a [Proof_trace] witness, and the
   checker (formula mode) must accept the trace with that conclusion.
   Returns the trace text for the mutation tests. *)
let solve_and_check name ?(config = ST.default_config) f expected =
  let path = Filename.temp_file "test-proof" ".qrp" in
  let proof = Proof.create ~path in
  let r = Session.one_shot ~config ~proof f in
  Proof.close proof;
  Alcotest.(check bool)
    (name ^ ": outcome") true
    (r.ST.outcome = if expected then ST.True else ST.False);
  (match r.ST.witness with
  | ST.Proof_trace _ -> ()
  | ST.No_witness -> Alcotest.fail (name ^ ": conclusive but no witness"));
  (match Checker.check_file ~formula:f path with
  | Ok v ->
      Alcotest.(check bool)
        (name ^ ": checker conclusion") true
        (List.mem expected v.Checker.conclusions)
  | Error fl ->
      Alcotest.fail
        (Printf.sprintf "%s: checker rejected line %d: %s" name fl.Checker.line
           fl.Checker.msg));
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  text

let test_fpv_accept () =
  for seed = 0 to 2 do
    let rng = Qbf_gen.Rng.create (100 + seed) in
    let f =
      Qbf_gen.Fpv.generate rng
        { core = 3; branches = 3; env = 2; cls = 4; lpc = 3 }
    in
    ignore
      (solve_and_check (Printf.sprintf "fpv %d" seed) f (Eval.eval f))
  done

(* gray / counter families at the BFS-oracle diameter d: phi_{d-1} is
   true, phi_d false — reduction off and on (aggressive enough that
   several reduce-and-compact cycles fire, so antecedent pids must
   survive compaction). *)
let test_families_accept () =
  List.iter
    (fun (mname, m) ->
      let d = Qbf_models.Reach.diameter m in
      List.iter
        (fun (rname, reduce) ->
          let config =
            if reduce then with_reduction ST.default_config
            else ST.default_config
          in
          let run n expected =
            ignore
              (solve_and_check
                 (Printf.sprintf "%s phi_%d %s" mname n rname)
                 ~config
                 (Qbf_models.Diameter.phi m ~n)
                 expected)
          in
          run (d - 1) true;
          run d false)
        [ ("plain", false); ("reduce", true) ])
    [
      ("gray2", Qbf_models.Families.gray ~bits:2);
      ("counter2", Qbf_models.Families.counter ~bits:2);
    ]

(* Every committed family at bounds 1 and 3 under restarts plus a
   reduction every 16 leaves keeping a tenth of the candidates: each
   answer is conclusive, agrees with the BFS oracle (phi_n is true iff
   n < d) and certifies. *)
let test_family_bounds_reduced () =
  let config =
    ST.(
      default_config |> with_restarts true |> with_db_reduction true
      |> with_db_reduce_interval 16
      |> with_db_keep_fraction 0.1)
  in
  List.iter
    (fun name ->
      let m = Qbf_models.Families.by_name name in
      let d = Qbf_models.Reach.diameter m in
      List.iter
        (fun n ->
          ignore
            (solve_and_check
               (Printf.sprintf "%s phi_%d reduced" name n)
               ~config
               (Qbf_models.Diameter.phi m ~n)
               (n < d)))
        [ 1; 3 ])
    [ "counter2"; "counter3"; "ring4"; "semaphore2"; "dme3"; "gray3"; "shift4" ]

(* One writer across an incremental session: solve / push+grow / solve /
   pop / solve.  Each conclusive call appends its own conclusion; the
   checker (trust mode — no single input file describes the growing
   formula) must accept the whole trace with the conclusions in call
   order. *)
let test_incremental_accept () =
  for seed = 0 to 4 do
    let rng = Qbf_gen.Rng.create (7000 + seed) in
    let nvars = 4 + Qbf_gen.Rng.int rng 6 in
    let f0 =
      Qbf_gen.Randqbf.prenex rng ~nvars
        ~levels:(1 + (seed mod 3))
        ~nclauses:(6 + Qbf_gen.Rng.int rng 10)
        ~len:3 ~min_exists:1 ()
    in
    let prefix = Formula.prefix f0 in
    let evars =
      List.filter (Prefix.is_exists prefix) (List.init nvars (fun v -> v))
    in
    if evars <> [] then begin
      let extra =
        List.init 3 (fun _ ->
            let e = List.nth evars (Qbf_gen.Rng.int rng (List.length evars)) in
            [
              Lit.make e (Qbf_gen.Rng.int rng 2 = 0);
              Lit.make (Qbf_gen.Rng.int rng nvars) (Qbf_gen.Rng.int rng 2 = 0);
            ])
      in
      let f1 =
        Formula.make prefix (List.map Clause.of_list extra @ Formula.matrix f0)
      in
      let path = Filename.temp_file "test-proof-inc" ".qrp" in
      let proof = Proof.create ~path in
      let t = Session.of_formula ~validate:true ~proof f0 in
      let expected = ref [] in
      let step label reference =
        let got = (Session.solve t).ST.outcome in
        let want = Eval.eval reference in
        Alcotest.(check bool)
          (Printf.sprintf "inc %d %s" seed label)
          true
          (got = if want then ST.True else ST.False);
        expected := want :: !expected
      in
      step "base" f0;
      Session.push t;
      List.iter (Session.add_clause t) extra;
      step "pushed" f1;
      Session.pop t;
      step "popped" f0;
      Session.dispose t;
      Proof.close proof;
      (match Checker.check_file path with
      | Ok v ->
          Alcotest.(check (list bool))
            (Printf.sprintf "inc %d conclusions" seed)
            (List.rev !expected) v.Checker.conclusions
      | Error fl ->
          Alcotest.fail
            (Printf.sprintf "inc %d rejected line %d: %s" seed fl.Checker.line
               fl.Checker.msg));
      Sys.remove path
    end
  done

(* Two fuzzer formulas (seeds 349 and 537) whose conflicts conclude at
   level 0 through a reason clause with a trailing universal: unassigned
   when the clause propagated, true at a deeper level by the time the
   conclusion drains the working clause.  The drain resolves
   syntactically, so these conclusions certify — under every
   configuration of the fuzzer's certificate phase. *)
let level0_formulas =
  [
    ( "seed 349",
      "p cnf 8 15\ne 1 0\na 2 3 0\ne 4 5 6 0\na 7 0\ne 8 0\n1 -2 3 0\n\
       1 2 -3 0\n-3 -4 8 0\n2 4 -6 0\n2 -6 8 0\n-5 -6 -7 0\n-2 4 -5 0\n\
       -1 2 -5 0\n1 -2 -7 0\n-2 -5 -7 0\n4 5 7 0\n2 3 4 0\n-5 6 -8 0\n\
       2 6 8 0\n3 -4 5 0\n" );
    ( "seed 537",
      "p cnf 5 8\ne 1 0\na 2 3 4 0\ne 5 0\n-1 2 -3 4 0\n1 -3 -4 5 0\n\
       -1 -3 4 5 0\n1 2 4 -5 0\n-2 3 4 5 0\n-1 2 3 5 0\n1 -2 -4 -5 0\n\
       -2 -3 4 5 0\n" );
  ]

let fuzz_configs =
  List.concat_map
    (fun h ->
      ST.
        [
          default_config |> with_heuristic h;
          default_config |> with_heuristic h |> with_learning false;
          default_config |> with_heuristic h |> with_pure_literals false;
          default_config |> with_heuristic h |> with_learning false
          |> with_pure_literals false;
          default_config |> with_heuristic h
          |> with_aux_hint (Some (fun _ -> true));
          default_config |> with_heuristic h |> with_restarts true
          |> with_restart_base 2 |> with_db_reduction true;
        ])
    [ ST.Total_order; ST.Partial_order ]

let test_level0_conclusions () =
  List.iter
    (fun (name, text) ->
      let f = Qbf_io.Qdimacs.parse_string text in
      List.iteri
        (fun i config ->
          ignore
            (solve_and_check
               (Printf.sprintf "%s config %d" name i)
               ~config f (Eval.eval f)))
        fuzz_configs)
    level0_formulas

(* --- hand-mutated traces ------------------------------------------- *)

(* A base certificate with resolution chains and (under reduction)
   compaction cycles to mutate. *)
let base_formula = Qbf_models.Diameter.phi (Qbf_models.Families.gray ~bits:2) ~n:3

let base_trace =
  lazy
    (solve_and_check "mutation base" ~config:(with_reduction ST.default_config)
       base_formula false)

let lines () = String.split_on_char '\n' (Lazy.force base_trace)

let write_trace text =
  let path = Filename.temp_file "test-proof-mut" ".qrp" in
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc;
  path

let must_reject name text =
  let path = write_trace text in
  (match Checker.check_file ~formula:base_formula path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail (name ^ ": mutated trace accepted"));
  Sys.remove path

(* Split an [r] record into (prefix tokens, chain pairs, recorded lits):
   r (c|t) PID FIRST (PVAR ANT).. 0 LIT.. 0 *)
let split_r line =
  match String.split_on_char ' ' line with
  | "r" :: kind :: pid :: first :: rest ->
      let rec pairs acc = function
        | "0" :: lits -> (List.rev acc, lits)
        | pv :: ant :: rest -> pairs ((pv, ant) :: acc) rest
        | _ -> Alcotest.fail ("unparseable r record: " ^ line)
      in
      let chain, lits = pairs [] rest in
      ((kind, pid, first), chain, lits)
  | _ -> Alcotest.fail ("not an r record: " ^ line)

let rebuild_r ((kind, pid, first), chain, lits) =
  String.concat " "
    (("r" :: kind :: pid :: first :: List.concat_map (fun (a, b) -> [ a; b ]) chain)
    @ ("0" :: lits))

let map_first_r p f ls =
  let hit = ref false in
  let out =
    List.map
      (fun l ->
        if (not !hit) && String.length l > 1 && l.[0] = 'r' && p (split_r l)
        then begin
          hit := true;
          f (split_r l)
        end
        else l)
      ls
  in
  if not !hit then Alcotest.fail "no matching r record to mutate";
  out

let test_reject_dropped_antecedent () =
  let mutated =
    map_first_r
      (fun (_, chain, _) -> List.length chain >= 2)
      (fun (hd, chain, lits) -> rebuild_r (hd, List.tl chain, lits))
      (lines ())
  in
  must_reject "dropped antecedent" (String.concat "\n" mutated)

let test_reject_wrong_pivot () =
  let nv = Formula.nvars base_formula in
  let mutated =
    map_first_r
      (fun (_, chain, _) -> chain <> [])
      (fun (hd, chain, lits) ->
        let (pv, ant), rest = (List.hd chain, List.tl chain) in
        let pv' = string_of_int ((int_of_string pv mod nv) + 1) in
        let pv' = if pv' = pv then string_of_int (((int_of_string pv + 1) mod nv) + 1) else pv' in
        rebuild_r (hd, (pv', ant) :: rest, lits))
      (lines ())
  in
  must_reject "wrong pivot" (String.concat "\n" mutated)

let test_reject_forged_empty_clause () =
  let text = Lazy.force base_trace in
  let first_input =
    match
      List.find_opt
        (fun l -> String.length l > 1 && l.[0] = 'i')
        (String.split_on_char '\n' text)
    with
    | Some l -> List.nth (String.split_on_char ' ' l) 1
    | None -> Alcotest.fail "no input clause in base trace"
  in
  (* claim the first input clause resolves (with no antecedents) to the
     empty clause, then conclude False from the forgery *)
  let forged =
    Printf.sprintf "%sr c 99990 %s 0 0\nf 0 99990\n" text first_input
  in
  must_reject "forged empty clause" forged

let test_reject_dangling_id () =
  let mutated =
    map_first_r
      (fun (_, chain, _) -> chain <> [])
      (fun (hd, chain, lits) ->
        let (pv, _), rest = (List.hd chain, List.tl chain) in
        rebuild_r (hd, (pv, "99991") :: rest, lits))
      (lines ())
  in
  must_reject "dangling constraint id" (String.concat "\n" mutated)

let test_reject_truncated () =
  let text = Lazy.force base_trace in
  (* cut mid-record: drop the trailing newline and a few bytes of the
     final conclusion line *)
  must_reject "truncated file" (String.sub text 0 (String.length text - 4))

(* --- reduction on a non-prenex prefix -------------------------------- *)

(* A tree-shaped prefix, ∃1 (∀2 ∃3 (∀6 ∃7)) (∀4 ∃5): the universal 2
   precedes 3 and 7 but not 5, which sits in the sibling subtree.  DFS
   times: d = 1..7 in the order 1 2 3 6 7 4 5, so f(2) = d(7) = 5 — the
   closed end of the interval (d(2), f(2)]. *)
let tree_formula =
  Qbf_io.Nqdimacs.parse_string
    "p ncnf 7 4\n\
     t (e 1 (a 2 (e 3 (a 6 (e 7)))) (a 4 (e 5)))\n\
     -1 2 5 0\n\
     1 5 0\n\
     -1 2 3 0\n\
     -1 2 7 0\n"

(* Declarations and input clauses 1..4 (one line each after the
   header), then one resolution record on line 13. *)
let tree_trace r =
  let p = Formula.prefix tree_formula in
  let decls =
    List.init 7 (fun v ->
        Printf.sprintf "v %d %s %d %d" (v + 1)
          (if Prefix.is_exists p v then "e" else "a")
          (Prefix.discovery p v) (Prefix.finish p v))
  in
  String.concat "\n"
    (("p qproof 1" :: decls)
    @ [ "i 1 -1 2 5 0"; "i 2 1 5 0"; "i 3 -1 2 3 0"; "i 4 -1 2 7 0"; r; "" ])

let check_tree r =
  let path = write_trace (tree_trace r) in
  let res = Checker.check_file ~formula:tree_formula path in
  Sys.remove path;
  res

(* [good] is the correct resolvent record and must be accepted; [bad]
   records a different literal set for the same chain and must be
   rejected at its own line. *)
let reduction_case name ~good ~bad =
  (match check_tree good with
  | Ok _ -> ()
  | Error fl ->
      Alcotest.fail
        (Printf.sprintf "%s: correct resolvent rejected at line %d: %s" name
           fl.Checker.line fl.Checker.msg));
  match check_tree bad with
  | Ok _ -> Alcotest.fail (name ^ ": wrong resolvent accepted")
  | Error fl ->
      Alcotest.(check (pair int string))
        name
        (13, "resolvent of constraint 10 does not match the derivation")
        (fl.Checker.line, fl.Checker.msg)

let test_tree_prefix_times () =
  let p = Formula.prefix tree_formula in
  let d v = Prefix.discovery p (v - 1) and f v = Prefix.finish p (v - 1) in
  Alcotest.(check bool)
    "3 strictly inside (d 2, f 2]" true
    (d 2 < d 3 && d 3 < f 2);
  Alcotest.(check int) "d 7 = f 2" (f 2) (d 7);
  Alcotest.(check bool) "5 outside (d 2, f 2]" true (d 5 > f 2)

(* Resolving 1 between {-1 2 5} and {1 5}: the universal 2 precedes no
   existential of the set — its only candidate blocker, 5, is in the
   sibling subtree (it would block 2 under any prenexing that puts 5
   after 2) — so 2 reduces away. *)
let test_reject_sibling_blocker () =
  reduction_case "sibling blocker" ~good:"r c 10 1 1 2 0 5 0"
    ~bad:"r c 10 1 1 2 0 2 5 0"

(* {-1 2 3} with {1 5}: 2 precedes 3, so it stays. *)
let test_reject_dropped_universal () =
  reduction_case "dropped universal" ~good:"r c 10 3 1 2 0 2 3 5 0"
    ~bad:"r c 10 3 1 2 0 3 5 0"

(* {-1 2 7} with {1 5}: 7 is the only blocker of 2 and d(7) = f(2); the
   interval is closed at f, so 2 stays. *)
let test_reject_boundary_blocker () =
  reduction_case "blocker at f" ~good:"r c 10 4 1 2 0 2 5 7 0"
    ~bad:"r c 10 4 1 2 0 5 7 0"

let suite =
  [
    Alcotest.test_case "fpv certificates" `Quick test_fpv_accept;
    Alcotest.test_case "family certificates, reduction on/off" `Slow
      test_families_accept;
    Alcotest.test_case "family bounds certify under aggressive reduction"
      `Quick test_family_bounds_reduced;
    Alcotest.test_case "incremental session certificate" `Quick
      test_incremental_accept;
    Alcotest.test_case "level-0 conclusions certify" `Quick
      test_level0_conclusions;
    Alcotest.test_case "reject dropped antecedent" `Quick
      test_reject_dropped_antecedent;
    Alcotest.test_case "reject wrong pivot" `Quick test_reject_wrong_pivot;
    Alcotest.test_case "reject forged empty clause" `Quick
      test_reject_forged_empty_clause;
    Alcotest.test_case "reject dangling constraint id" `Quick
      test_reject_dangling_id;
    Alcotest.test_case "reject truncated trace" `Quick test_reject_truncated;
    Alcotest.test_case "tree prefix timestamps" `Quick test_tree_prefix_times;
    Alcotest.test_case "reject universal kept by a sibling" `Quick
      test_reject_sibling_blocker;
    Alcotest.test_case "reject dropped preceding universal" `Quick
      test_reject_dropped_universal;
    Alcotest.test_case "reject universal dropped at the f boundary" `Quick
      test_reject_boundary_blocker;
  ]
