(* Propagation loop: drains the discovery queues filled by {!State} —
   eager counter updates for original clauses, watch visits for learned
   constraints — re-verifying each candidate (queues may hold stale
   entries).  Order: conflicts, matrix-satisfied / true-cube
   solutions, unit assignments (clauses and cubes, with the partial-order
   side conditions of Lemma 5 and its dual), then pure literals. *)

open Solver_types
module S = State
module Db = Constraint_db
module Obs = Qbf_obs.Obs
module Trace = Qbf_obs.Trace

type source = Cover | Cube of int

(* One guarded emit per unit/pure assignment; [l] is the literal made
   true. *)
let note_propagation s l =
  let o = s.S.obs in
  if o.Obs.trace_on then
    Trace.emit o.Obs.trace Trace.Propagation ~dlevel:(S.current_level s)
      ~plevel:s.S.plevel.(S.var l) ~arg:l

let note_pure s l =
  let o = s.S.obs in
  if o.Obs.trace_on then
    Trace.emit o.Obs.trace Trace.Pure ~dlevel:(S.current_level s)
      ~plevel:s.S.plevel.(S.var l) ~arg:l

type outcome =
  | P_conflict of int (* id of a falsified clause *)
  | P_solution of source
  | P_none (* quiescent: decide next *)

(* Learned (watch-maintained) constraints carry no counters: their
   re-verification scans the assignment ([S.scan_status]).  When such an
   entry turns out stale, its watches were left broken at push time, so
   the invariant is restored ([S.repair_watches]) — which may
   legitimately re-enqueue it elsewhere (a parked unit clause is pushed
   on unit_q, never back on the queue being drained, so draining
   terminates). *)

(* Pop the next leaf: a falsified clause from conflict_q, a true cube
   from cubesat_q.  Cubes are always learned. *)
let pop_leaf s ~cube =
  let db = s.S.db in
  let q = if cube then s.S.cubesat_q else s.S.conflict_q in
  let rec go () =
    if Vec.is_empty q then None
    else
      let cid = Vec.pop q in
      Db.set_cq_mark db cid 0;
      if not (Db.active db cid && Db.is_cube db cid = cube) then go ()
      else if Db.learned db cid then begin
        let opened, fixed = S.scan_status s cid in
        if fixed = 0 && opened = 0 then Some cid
        else begin
          S.repair_watches s cid;
          go ()
        end
      end
      else if Db.fixed db cid = 0 && Db.ue db cid = 0 then Some cid
      else go ()
  in
  go ()

(* The unit rule (Lemma 5): a clause with a single unassigned
   existential literal [p], no true literal, and no unassigned universal
   literal [u] with [|u| ≺ |p|] forces [p].  Dually, a cube with a
   single unassigned universal literal [p], no false literal, and no
   unassigned existential [e] with [|e| ≺ |p|] forces the universal
   player to falsify [p]. *)
let try_unit s cid =
  let p = S.unit_primary s cid in
  if p < 0 then false
  else begin
    let l = if Db.is_cube s.S.db cid then S.neg p else p in
    s.S.stats.propagations <- s.S.stats.propagations + 1;
    note_propagation s l;
    S.event s (E_propagate l);
    S.assign s l (Reason cid);
    true
  end

let pop_unit s =
  let db = s.S.db in
  let rec go () =
    if Vec.is_empty s.S.unit_q then false
    else
      let cid = Vec.pop s.S.unit_q in
      Db.set_uq_mark db cid 0;
      let fired =
        Db.active db cid
        &&
        if Db.learned db cid then begin
          let opened, fixed = S.scan_status s cid in
          if fixed <> 0 then begin
            S.repair_watches s cid;
            false
          end
          else if opened = 0 then begin
            (* became a leaf after it was queued as unit *)
            S.push_leaf s cid;
            false
          end
          else
            opened = 1
            && (try_unit s cid
               ||
               (* blocked: a compatible pair (the forced literal + its
                  blocker) exists, rewatch on it *)
               (S.repair_watches s cid;
                false))
        end
        else
          (* an original, hence a clause *)
          Db.fixed db cid = 0 && Db.ue db cid = 1 && try_unit s cid
      in
      fired || go ()
  in
  go ()

let assign_pure s l =
  s.S.stats.pure_assignments <- s.S.stats.pure_assignments + 1;
  note_pure s l;
  S.event s (E_propagate l);
  S.assign s l Pure

(* Pure-literal fixing.  Universal pures and vanished variables are
   assigned eagerly.  An existential pure whose assignment would satisfy
   clauses (the occurring polarity) is *deferred*: satisfying those
   clauses some other way may later make the variable pure in the
   opposite (negative) polarity, in which case its definition clauses
   are covered by the variable itself — which keeps the initial goods of
   solution learning short.  Deferred pures fire one at a time, only at
   quiescence. *)
let pop_pure s =
  let rec go () =
    if Vec.is_empty s.S.pure_q then false
    else
      let absent = Vec.pop s.S.pure_q in
      let v = S.var absent in
      if s.S.pos_unsat.(absent) = 0 && not (S.is_assigned s v) then
        if s.S.is_exist.(v) && s.S.pos_unsat.(S.neg absent) > 0 then begin
          Vec.push s.S.pure_defer_q absent;
          go ()
        end
        else begin
          (* an existential takes the occurring polarity, a universal the
             absent one (falsifying its occurrences); a vanished variable
             gets an arbitrary fixed polarity *)
          let l = if s.S.is_exist.(v) then S.neg absent else absent in
          assign_pure s l;
          true
        end
      else go ()
  in
  go ()

let pop_deferred_pure s =
  let rec go () =
    if Vec.is_empty s.S.pure_defer_q then false
    else
      let absent = Vec.pop s.S.pure_defer_q in
      let v = S.var absent in
      if s.S.pos_unsat.(absent) = 0 && not (S.is_assigned s v) then begin
        assign_pure s (S.neg absent);
        true
      end
      else go ()
  in
  go ()

(* Run propagation to quiescence or to the first conflict/solution. *)
let run s =
  let pure = s.S.config.search.pure_literals in
  let rec loop () =
    match pop_leaf s ~cube:false with
    | Some cid -> P_conflict cid
    | None ->
        if s.S.unsat_originals = 0 then P_solution Cover
        else begin
          match pop_leaf s ~cube:true with
          | Some cid -> P_solution (Cube cid)
          | None ->
              if pop_unit s then loop ()
              else if pure && pop_pure s then loop ()
              else if pure && pop_deferred_pure s then loop ()
              else P_none
        end
  in
  loop ()
