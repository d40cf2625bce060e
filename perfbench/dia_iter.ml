(* dia-iter: the qdiameter default path.  One incremental PO session per
   model iterates the non-prenex phi_n of the paper's eq. (14) until a
   bound turns false; every bound is checked against the explicit-state
   BFS oracle (phi_n is true iff n < d). *)

module ST = Qbf_solver.Solver_types
module Diameter = Qbf_models.Diameter

type model = { name : string; model : Qbf_models.Model.t; diameter : int }
type setup = model list

let setup ~smoke ~fault =
  let names = if smoke then [ "counter2"; "gray2" ] else [ "counter4"; "gray3" ] in
  List.mapi
    (fun i name ->
      let model = Qbf_models.Families.by_name name in
      let d = Qbf_models.Reach.diameter model in
      (* the deliberately wrong oracle of the self-test *)
      { name; model; diameter = (if fault && i = 0 then d + 1 else d) })
    names

(* Per-model metrics are keyed by the full-size model names, so a smoke
   pass fills the same keys. *)
let key = function "counter2" -> "counter4" | "gray2" -> "gray3" | n -> n

let run (setup : setup) (p : Pass.t) =
  List.iter
    (fun m ->
      let config =
        Pass.config p ST.(default_config |> with_heuristic Partial_order)
      in
      let last = ref (Span.now ()) and final = ref 0. and carried = ref 0 in
      let on_bound (b : Diameter.bound_stat) =
        let now = Span.now () in
        final := now -. !last;
        last := now;
        carried := !carried + b.carried_clauses;
        Pass.add_stats p b.stats;
        let expect = if b.bound < m.diameter then ST.True else ST.False in
        Pass.check p (b.outcome = expect)
          (Printf.sprintf "dia-iter %s phi_%d is %s, BFS diameter %d" m.name
             b.bound (Qbf_solver.Outcome.to_string b.outcome) m.diameter);
        Pass.answer p
          (Printf.sprintf "%s phi_%d %s" m.name b.bound
             (Qbf_solver.Outcome.to_string b.outcome))
      in
      let report, dt =
        Span.with_ p.trace "diameter" (fun () ->
            Diameter.compute_report ~config ~on_bound m.model)
      in
      Pass.add_time p "solve" dt;
      let k = "dia." ^ key m.name in
      Pass.add_time p (k ^ ".iter_s") dt;
      Pass.add_time p (k ^ ".final_bound_s") !final;
      Pass.add_count p (k ^ ".carried_clauses") !carried;
      Pass.check p
        (report.diameter = Some m.diameter)
        (Printf.sprintf "dia-iter %s diameter %s, BFS %d" m.name
           (match report.diameter with
           | Some d -> string_of_int d
           | None -> "unknown")
           m.diameter))
    setup
