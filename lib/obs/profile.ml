(* Phase profiler: exclusive wall/CPU time per solver phase.

   The profiler keeps a stack of open phases.  [enter] and [leave] each
   read both clocks once and charge the time since the previous read to
   the phase on top of the stack, so a nested span (backtrack inside
   analyze, propagate inside solve) takes its time out of its parent's
   row: every row is self time, and the rows add up to the profiled
   whole.  The stack is a parent link per phase (a phase never nests in
   itself), so it is preallocated and bounded.  Spans are cheap enough
   to wrap per-leaf engine calls when profiling is on, and never
   executed when it is off (the engine guards on the collector flag).
   Clocks are injectable for deterministic tests; the defaults are
   [Unix.gettimeofday] (wall) and [Sys.time] (CPU). *)

type phase =
  | Parse (* reading + parsing the input *)
  | Prenex (* prenexing / miniscoping / preprocessing *)
  | Build (* solver-state construction from the formula *)
  | Propagate (* the propagation loop *)
  | Backtrack (* trail undo: unassign bookkeeping *)
  | Analyze (* conflict/solution analysis, backjumps' trail undo aside *)
  | Heuristic (* branching-variable selection *)
  | Solve (* the search call, outside the phases above *)

let phase_to_string = function
  | Parse -> "parse"
  | Prenex -> "prenex"
  | Build -> "build"
  | Propagate -> "propagate"
  | Backtrack -> "backtrack"
  | Analyze -> "analyze"
  | Heuristic -> "heuristic"
  | Solve -> "solve"

let phase_index = function
  | Parse -> 0
  | Prenex -> 1
  | Build -> 2
  | Propagate -> 3
  | Backtrack -> 4
  | Analyze -> 5
  | Heuristic -> 6
  | Solve -> 7

let all_phases =
  [ Parse; Prenex; Build; Propagate; Backtrack; Analyze; Heuristic; Solve ]

let num_phases = 8

type t = {
  clock : unit -> float;
  cpu : unit -> float;
  wall_total : float array;
  cpu_total : float array;
  calls : int array;
  parent : int array; (* phase below each open phase, -1 at the bottom *)
  mutable top : int; (* innermost open phase, -1 when none *)
  mutable last_wall : float; (* clock reads at the last enter/leave *)
  mutable last_cpu : float;
}

let create ?(clock = Unix.gettimeofday) ?(cpu = Sys.time) () =
  {
    clock;
    cpu;
    wall_total = Array.make num_phases 0.;
    cpu_total = Array.make num_phases 0.;
    calls = Array.make num_phases 0;
    parent = Array.make num_phases (-1);
    top = -1;
    last_wall = 0.;
    last_cpu = 0.;
  }

(* Charge the time since the last read to the open phase on top. *)
let[@inline] charge t =
  let w = t.clock () and c = t.cpu () in
  if t.top >= 0 then begin
    t.wall_total.(t.top) <- t.wall_total.(t.top) +. (w -. t.last_wall);
    t.cpu_total.(t.top) <- t.cpu_total.(t.top) +. (c -. t.last_cpu)
  end;
  t.last_wall <- w;
  t.last_cpu <- c

let enter t ph =
  charge t;
  let i = phase_index ph in
  t.parent.(i) <- t.top;
  t.top <- i

let leave t ph =
  charge t;
  let i = phase_index ph in
  t.calls.(i) <- t.calls.(i) + 1;
  t.top <- t.parent.(i)

(* Convenience span for cold paths (allocates a closure; do not use on
   the search hot path — guard and call [enter]/[leave] inline there). *)
let span t ph f =
  enter t ph;
  Fun.protect ~finally:(fun () -> leave t ph) f

type span_snapshot = { phase : string; calls : int; wall_s : float; cpu_s : float }
type snapshot = span_snapshot list

(* Phases that never ran are omitted: the profile of a plain solve does
   not carry parse/prenex rows, the CLI's does. *)
let snapshot (t : t) =
  List.filter_map
    (fun ph ->
      let i = phase_index ph in
      if t.calls.(i) = 0 then None
      else
        Some
          {
            phase = phase_to_string ph;
            calls = t.calls.(i);
            wall_s = t.wall_total.(i);
            cpu_s = t.cpu_total.(i);
          })
    all_phases

(* Rows are self times, so wall% is each row's share of their sum. *)
let render_table (s : snapshot) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%-10s %10s %12s %12s %7s\n" "phase" "calls" "wall(s)"
       "cpu(s)" "wall%");
  let total = List.fold_left (fun acc sp -> acc +. sp.wall_s) 0. s in
  List.iter
    (fun sp ->
      let pct = if total > 0. then 100. *. sp.wall_s /. total else 0. in
      Buffer.add_string buf
        (Printf.sprintf "%-10s %10d %12.6f %12.6f %6.1f%%\n" sp.phase sp.calls
           sp.wall_s sp.cpu_s pct))
    s;
  Buffer.contents buf

(* The profile as Prometheus text: three counter families
   ([<prefix>profile_calls_total], [..._wall_seconds_total],
   [..._cpu_seconds_total]), one sample per phase, labelled [phase]. *)
let to_prometheus ~prefix (s : snapshot) =
  let buf = Buffer.create 512 in
  let family name value =
    Metrics.prom_family buf ~name:(prefix ^ name) ~typ:"counter"
      (List.map (fun sp -> ([ ("phase", sp.phase) ], value sp)) s)
  in
  family "profile_calls_total" (fun sp -> float_of_int sp.calls);
  family "profile_wall_seconds_total" (fun sp -> sp.wall_s);
  family "profile_cpu_seconds_total" (fun sp -> sp.cpu_s);
  Buffer.contents buf

let snapshot_to_json (s : snapshot) =
  Json.List
    (List.map
       (fun sp ->
         Json.Obj
           [
             ("phase", Json.String sp.phase);
             ("calls", Json.Int sp.calls);
             ("wall_s", Json.Float sp.wall_s);
             ("cpu_s", Json.Float sp.cpu_s);
           ])
       s)

(* Reader for what [snapshot_to_json] writes — the supervisor parses
   worker-shipped profiles back before merging. *)
let snapshot_of_json = function
  | Json.List spans ->
      List.fold_left
        (fun acc sp ->
          match acc with
          | Error _ as e -> e
          | Ok acc -> (
              let str k = Option.bind (Json.member k sp) Json.to_string_opt in
              let int k = Option.bind (Json.member k sp) Json.to_int_opt in
              let flo k = Option.bind (Json.member k sp) Json.to_float_opt in
              match (str "phase", int "calls", flo "wall_s", flo "cpu_s") with
              | Some phase, Some calls, Some wall_s, Some cpu_s ->
                  Ok ({ phase; calls; wall_s; cpu_s } :: acc)
              | _ -> Error "profile span missing phase/calls/wall_s/cpu_s"))
        (Ok []) spans
      |> Result.map List.rev
  | _ -> Error "profile snapshot must be a list of spans"

(* Merge two profile snapshots by phase, preserving the canonical phase
   order so merging is associative and commutative. *)
let merge_snapshot (a : snapshot) (b : snapshot) =
  List.filter_map
    (fun ph ->
      let name = phase_to_string ph in
      let find s = List.find_opt (fun sp -> sp.phase = name) s in
      match (find a, find b) with
      | None, None -> None
      | Some sp, None | None, Some sp -> Some sp
      | Some x, Some y ->
          Some
            {
              phase = name;
              calls = x.calls + y.calls;
              wall_s = x.wall_s +. y.wall_s;
              cpu_s = x.cpu_s +. y.cpu_s;
            })
    all_phases
