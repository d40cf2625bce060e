(* Learned-DB lifecycle: arena compaction with relocation-map patching
   of watches, reasons and discovery queues; quality-based reduction
   that never drops locked constraints; repeat determinism under
   restarts; aggressive reduction on the example instances; and the
   reduction-on/off differential over the model families. *)

open Qbf_core
module ST = Qbf_solver.Solver_types
module S = Qbf_solver.State
module Db = Qbf_solver.Constraint_db
module Engine = Qbf_solver.Engine

let ( => ) b v = Alcotest.check Util.outcome b (Util.solver_outcome_of_bool v)

(* --- the arena itself --------------------------------------------------- *)

(* Compaction is a stable left slide: live constraints keep their
   payload and relative order, dead ones map to -1, and the arena
   shrinks to exactly the survivors. *)
let test_arena_compact () =
  let db = Db.create () in
  let n = 200 in
  for i = 0 to n - 1 do
    let lits = Array.init (1 + (i mod 5)) (fun j -> (2 * i) + j) in
    let kind = if i mod 3 = 0 then ST.Cube_c else ST.Clause_c in
    let cid = Db.add db ~kind ~learned:(i mod 2 = 1) ~frame:(i mod 4) lits in
    Alcotest.(check int) "ids are dense" i cid;
    Db.set_lbd db cid (i mod 7);
    if i mod 2 = 1 then Db.bump db cid
  done;
  for cid = 0 to n - 1 do
    if cid mod 3 = 1 || cid mod 7 = 0 then Db.deactivate db cid
  done;
  let live =
    List.filter_map
      (fun cid ->
        if Db.active db cid then
          Some
            ( cid,
              Db.lits_list db cid,
              Db.kind db cid,
              Db.learned db cid,
              Db.frame db cid,
              Db.lbd db cid )
        else None)
      (List.init n (fun i -> i))
  in
  let reloc = Db.compact db in
  Alcotest.(check int) "arena shrank to the survivors" (List.length live)
    (Db.size db);
  let prev = ref (-1) in
  List.iter
    (fun (old, lits, kind, learned, frame, lbd) ->
      let nid = reloc.(old) in
      Alcotest.(check bool) "live constraint relocated" true (nid >= 0);
      Alcotest.(check bool) "stable order" true (nid > !prev);
      prev := nid;
      Alcotest.(check (list int)) "lits preserved" lits (Db.lits_list db nid);
      Alcotest.(check bool) "kind preserved" true (Db.kind db nid = kind);
      Alcotest.(check bool) "learned preserved" true
        (Db.learned db nid = learned);
      Alcotest.(check int) "frame preserved" frame (Db.frame db nid);
      Alcotest.(check int) "lbd preserved" lbd (Db.lbd db nid))
    live;
  for cid = 0 to n - 1 do
    if not (List.exists (fun (old, _, _, _, _, _) -> old = cid) live) then
      Alcotest.(check int)
        (Printf.sprintf "dead constraint %d maps to -1" cid)
        (-1) reloc.(cid)
  done

(* --- mid-search reduction ----------------------------------------------- *)

(* Stop the search mid-flight (via the should_stop hook after a fixed
   number of decisions), snapshot the reason constraint of every
   assigned variable by content, force an aggressive reduction cycle
   (keep nothing but locked and glue), and check that

   - every reason survived and was re-pointed through the relocation
     map at a constraint with the same literals (locked are never
     dropped, ids are patched);
   - the watch invariants hold on the compacted arena;
   - resuming the search concludes with the oracle's answer, i.e. the
     discovery queues survived the compaction too. *)
let test_reduce_mid_search () =
  let dropped_total = ref 0 in
  let resumed = ref 0 in
  for seed = 0 to 11 do
    let rng = Qbf_gen.Rng.create (9100 + seed) in
    (* FPV instances take hundreds of decisions and learn both clauses
       and cubes — random prenex QBFs die in a handful of decisions and
       would never reach the suspension point. *)
    let f =
      Qbf_gen.Fpv.generate rng
        {
          Qbf_gen.Fpv.core = 4;
          branches = 2 + (seed mod 2);
          env = 3;
          cls = 2;
          lpc = 3;
        }
    in
    let reference = (Qbf_solver.Engine.solve f).ST.outcome in
    let stop_now = ref false in
    let decisions = ref 0 in
    let config =
      ST.(
        default_config
        |> with_debug_checks true
        |> with_db_keep_fraction 0.0
        |> with_should_stop (Some (fun () -> !stop_now))
        |> with_stop_interval 1
        |> with_on_event
             (Some
                (fun e ->
                  match e with
                  | ST.E_decide _ | ST.E_flip _ ->
                      incr decisions;
                      if !decisions = 20 then stop_now := true
                  | _ -> ())))
    in
    let s = S.create f config in
    let r1 = Engine.solve_state s in
    if r1.ST.outcome = ST.Unknown then begin
      let db = s.S.db in
      let snapshot = ref [] in
      for v = 0 to s.S.nvars - 1 do
        if S.is_assigned s v then
          match s.S.reason.(v) with
          | ST.Reason rid ->
              snapshot :=
                (v, List.sort compare (Db.lits_list db rid)) :: !snapshot
          | ST.Decision | ST.Flipped | ST.Pure -> ()
      done;
      let before = Db.size db in
      Engine.reduce_db_for_testing s;
      dropped_total := !dropped_total + before - Db.size db;
      List.iter
        (fun (v, lits) ->
          Alcotest.(check bool)
            (Printf.sprintf "seed %d: var %d still assigned" seed v)
            true (S.is_assigned s v);
          match s.S.reason.(v) with
          | ST.Reason rid ->
              Alcotest.(check bool)
                (Printf.sprintf "seed %d: reason of %d in range" seed v)
                true
                (rid >= 0 && rid < Db.size db);
              Alcotest.(check bool)
                (Printf.sprintf "seed %d: reason of %d active" seed v)
                true (Db.active db rid);
              Alcotest.(check (list int))
                (Printf.sprintf "seed %d: reason of %d same literals" seed v)
                lits
                (List.sort compare (Db.lits_list db rid))
          | ST.Decision | ST.Flipped | ST.Pure ->
              Alcotest.failf "seed %d: reason of %d vanished" seed v)
        !snapshot;
      Test_prop.check_watch_invariants
        (Printf.sprintf "after reduce, seed %d" seed)
        s;
      stop_now := false;
      incr resumed;
      Alcotest.check Util.outcome
        ("resumed " ^ string_of_int seed)
        reference
        (Engine.solve_state s).ST.outcome
    end
  done;
  Alcotest.(check bool) "some run was actually suspended and resumed" true
    (!resumed > 0);
  Alcotest.(check bool) "reduction actually dropped constraints" true
    (!dropped_total > 0)

(* --- repeat determinism ----------------------------------------------- *)

(* Restarts branch on saved phases and activities; none of that state
   may leak between two solves of the same formula. *)
let test_repeat_deterministic () =
  let rng = Qbf_gen.Rng.create 515 in
  for i = 0 to 14 do
    let f =
      Qbf_gen.Randqbf.prenex rng ~nvars:12
        ~levels:(2 + (i mod 3))
        ~nclauses:24 ~len:3 ~min_exists:1 ()
    in
    let value = Eval.eval f in
    let run () =
      Qbf_solver.Engine.solve
        ~config:ST.(default_config |> with_restarts true |> with_restart_base 2)
        f
    in
    let a = run () and b = run () in
    ("instance " ^ string_of_int i => value) a.ST.outcome;
    Alcotest.(check int)
      (Printf.sprintf "instance %d: same decisions on repeat" i)
      a.ST.stats.ST.decisions b.ST.stats.ST.decisions;
    Alcotest.(check int)
      (Printf.sprintf "instance %d: same conflicts on repeat" i)
      a.ST.stats.ST.conflicts b.ST.stats.ST.conflicts
  done

(* --- aggressive reduction on the example instances --------------------- *)

(* The committed example instances, except ncf_hard (the deliberately
   slow one, for budget and signal tests).  The directory is found both
   from the dune test sandbox (examples are a declared dependency) and
   from the repository root, where `dune exec test/test_main.exe` runs. *)
let example_instances () =
  let dir =
    List.find Sys.file_exists [ "../examples/instances"; "examples/instances" ]
  in
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f ->
         Filename.extension f <> ""
         && not (String.starts_with ~prefix:"ncf_hard" f))
  |> List.map (fun f -> (f, Filename.concat dir f))

(* Every example (bar ncf_hard) decided with the default configuration
   and with restarts plus a reduction every 16 leaves keeping a tenth of
   the candidates: both conclusive, the same answer, and the reduction
   really fires on ncf_d6v4. *)
let test_reduction_agrees_on_examples () =
  let aggressive =
    ST.(
      default_config |> with_restarts true |> with_db_reduction true
      |> with_db_reduce_interval 16
      |> with_db_keep_fraction 0.1)
  in
  let files = example_instances () in
  Alcotest.(check bool) "ncf_d6v4 among the examples" true
    (List.mem_assoc "ncf_d6v4.qdimacs" files);
  List.iter
    (fun (name, path) ->
      let f = Qbf_run.Run.load_exn path in
      let base = Engine.solve f in
      let red = Engine.solve ~config:aggressive f in
      Alcotest.(check bool)
        (name ^ ": conclusive") true
        (base.ST.outcome <> ST.Unknown);
      Alcotest.check Util.outcome (name ^ ": same answer") base.ST.outcome
        red.ST.outcome;
      if name = "ncf_d6v4.qdimacs" then
        Alcotest.(check bool)
          (Printf.sprintf "%s: constraints deleted (%d)" name
             red.ST.stats.ST.deleted_constraints)
          true
          (red.ST.stats.ST.deleted_constraints > 0))
    files

(* --- reduction on/off over the model families --------------------------- *)

let test_reduction_agrees_on_families () =
  List.iter
    (fun name ->
      let model = Qbf_models.Families.by_name name in
      let oracle = Qbf_models.Reach.diameter model in
      List.iter
        (fun reduce ->
          let config =
            ST.(
              default_config |> with_restarts true
              |> with_db_reduction reduce
              |> with_db_reduce_interval 32
              |> with_db_keep_fraction 0.5)
          in
          let r =
            Qbf_models.Diameter.compute_report ~config ~mode:`Incremental
              model
          in
          Alcotest.(check (option int))
            (Printf.sprintf "%s reduction=%b diameter" name reduce)
            (Some oracle) r.Qbf_models.Diameter.diameter)
        [ true; false ])
    [ "counter2"; "ring4"; "semaphore2" ]

let suite =
  [
    Alcotest.test_case "arena compaction" `Quick test_arena_compact;
    Alcotest.test_case "reduce mid-search" `Quick test_reduce_mid_search;
    Alcotest.test_case "repeat solves deterministic" `Quick
      test_repeat_deterministic;
    Alcotest.test_case "aggressive reduction on the examples" `Quick
      test_reduction_agrees_on_examples;
    Alcotest.test_case "reduction on/off agree on families" `Quick
      test_reduction_agrees_on_families;
  ]
