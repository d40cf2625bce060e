(* Branching heuristics (Section VI of the paper).

   Both modes choose among the *available* variables — those whose
   ≺-predecessors are all assigned, i.e. the top variables of the
   residual QBF — so the prefix is always respected.

   - Total_order (QuBE(TO)): priority by (prefix level, activity, id),
     the VSIDS-like ordering of the prenex solver.
   - Partial_order (QuBE(PO)): the score of a literal is its activity
     plus the maximum score of the literals one prefix level deeper
     inside its scope, computed bottom-up over the quantifier-tree
     blocks; ties break towards the smaller variable id. *)

open Qbf_core
open Solver_types
module S = State

let max_act s v =
  let p = 2 * v in
  Float.max s.S.act.(p) s.S.act.(p + 1)

(* Branch polarity: the saved phase when the variable has been assigned
   before (restarts then resume near the assignment they abandoned — the
   learned constraints that survive the restart keep pruning the same
   region), else the higher-activity polarity. *)
let phase_literal s v =
  let p = 2 * v in
  match s.S.saved_phase.(v) with
  | 1 -> p
  | 0 -> p + 1
  | _ -> if s.S.act.(p) >= s.S.act.(p + 1) then p else p + 1

let pick_total_order s =
  let best = ref (-1) in
  let best_level = ref max_int in
  let best_act = ref neg_infinity in
  for v = 0 to s.S.nvars - 1 do
    if S.available s v then begin
      let lvl = Prefix.level s.S.prefix v in
      let a = max_act s v in
      if
        lvl < !best_level
        || (lvl = !best_level && a > !best_act)
      then begin
        best := v;
        best_level := lvl;
        best_act := a
      end
    end
  done;
  !best

let pick_partial_order s =
  let nb = Prefix.num_blocks s.S.prefix in
  if nb = 0 then -1
  else begin
    (* Bottom-up block scores; block ids are DFS-preorder, so children
       always have larger ids than their parent.  The score arrays are
       preallocated in State (sized by create/extend): the descending
       pass writes every cell before any read, so no clearing is needed
       and no allocation happens per decision. *)
    let block_best = s.S.po_block_best in
    let child_max = s.S.po_child_max in
    for b = nb - 1 downto 0 do
      let cm =
        Array.fold_left
          (fun acc c -> Float.max acc block_best.(c))
          0.
          (Prefix.block_children s.S.prefix b)
      in
      child_max.(b) <- cm;
      let local =
        Array.fold_left
          (fun acc v -> Float.max acc (max_act s v))
          0.
          (Prefix.block_vars s.S.prefix b)
      in
      block_best.(b) <- local +. cm
    done;
    let best = ref (-1) in
    let best_score = ref neg_infinity in
    for v = 0 to s.S.nvars - 1 do
      if S.available s v then begin
        let score = max_act s v +. child_max.(s.S.block_of.(v)) in
        if score > !best_score then begin
          best := v;
          best_score := score
        end
      end
    done;
    !best
  end

(* Assign the next branch; [false] when every variable is assigned. *)
let decide s =
  let v =
    match s.S.config.search.heuristic with
    | Total_order -> pick_total_order s
    | Partial_order -> pick_partial_order s
  in
  if v < 0 then false
  else begin
    S.new_decision s (phase_literal s v) ~flipped:false;
    true
  end
