(* The resilient solving harness: structured loading and budgeted,
   interruptible solves.

   A "run" never throws on bad input or exhausted budgets: loading
   returns [(formula, Run_error.t) result], and solving returns a
   [report] whose [stopped] field says which limit (if any) ended the
   search.  Partial statistics are always preserved.  Retrying with a
   larger budget is the serving layer's job (Qbf_serve.Supervisor, which
   also runs in-process with no worker pool). *)

module ST = Qbf_solver.Solver_types

type format = Qdimacs | Nqdimacs

(* Decide the format from the first non-comment, non-blank line: a
   `p ncnf` header means NQDIMACS, anything else (including a missing or
   malformed header, which the parser will then diagnose) is QDIMACS. *)
let sniff_format text =
  let rec scan = function
    | [] -> Qdimacs
    | line :: rest ->
        let t = String.trim line in
        if t = "" || t.[0] = 'c' then scan rest
        else if String.length t >= 6 && String.sub t 0 6 = "p ncnf" then
          Nqdimacs
        else Qdimacs
  in
  scan (String.split_on_char '\n' text)

let parse ~file ~format text =
  match format with
  | Qdimacs ->
      Qbf_io.Qdimacs.parse_string_res text
      |> Result.map_error (Run_error.of_qdimacs ~file)
  | Nqdimacs ->
      Qbf_io.Nqdimacs.parse_string_res text
      |> Result.map_error (Run_error.of_nqdimacs ~file)

let load_string ?(file = "<string>") ?format text =
  let format =
    match format with Some f -> f | None -> sniff_format text
  in
  parse ~file ~format text

(* Read the whole file once; every failure mode (missing file,
   directory, permission, truncated read) becomes a structured [Io]
   error instead of an escaping exception. *)
let load ?format path =
  match
    if Sys.file_exists path && Sys.is_directory path then
      raise (Sys_error (path ^ ": is a directory"));
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | text -> load_string ~file:path ?format text
  | exception Sys_error msg ->
      (* Sys_error messages already lead with the path; drop it so the
         rendered diagnostic doesn't repeat it. *)
      let msg =
        let p = path ^ ": " in
        let lp = String.length p in
        if String.length msg > lp && String.sub msg 0 lp = p then
          String.sub msg lp (String.length msg - lp)
        else msg
      in
      Error (Run_error.Io { file = path; msg })
  | exception End_of_file ->
      Error (Run_error.Io { file = path; msg = "truncated read" })

let load_exn ?format path =
  match load ?format path with
  | Ok f -> f
  | Error e -> raise (Run_error.Error e)

(* ------------------------------------------------------------------ *)
(* Budgeted, interruptible solving                                     *)

(* The report shape and the stop-reason derivation live in {!Report};
   the record equations keep every existing [Run.report] consumer
   compiling against the shared type. *)

type stop_reason = Report.stop_reason =
  | Timeout
  | Interrupted of Limits.Interrupt.reason
  | Node_budget
  | Budget

let string_of_stop_reason = Report.string_of_stop_reason

type report = Report.t = {
  outcome : ST.outcome;
  time : float;
  stats : ST.stats;
  witness : ST.witness;
  stopped : stop_reason option;
  metrics : Qbf_obs.Metrics.snapshot option;
  profile : Qbf_obs.Profile.snapshot option;
}

let min_opt a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some a, Some b -> Some (min a b)

(* Merge [limits] and [interrupt] into [config]'s budget hooks.  A
   pre-existing [should_stop]/[stop_flag] in the config is preserved:
   the deadline is OR-ed into the poll and the flag keeps priority. *)
let effective_config (limits : Limits.t) interrupt deadline config =
  let b = config.ST.budgets in
  let should_stop =
    match (b.ST.should_stop, limits.Limits.timeout_s) with
    | None, None -> None
    | user, _ ->
        Some
          (fun () ->
            Limits.Deadline.expired deadline
            || match user with Some f -> f () | None -> false)
  in
  let stop_flag =
    match b.ST.stop_flag with
    | None -> Some (Limits.Interrupt.flag interrupt)
    | Some _ as user -> user
  in
  ST.with_budgets
    (fun b ->
      {
        ST.should_stop;
        stop_flag;
        stop_interval = max 1 limits.Limits.poll_interval;
        max_nodes = min_opt b.ST.max_nodes limits.Limits.max_nodes;
      })
    config

let solve ?(limits = Limits.default) ?interrupt ?(config = ST.default_config)
    ?proof_file formula =
  let interrupt =
    match interrupt with Some i -> i | None -> Limits.Interrupt.create ()
  in
  let deadline =
    match limits.Limits.timeout_s with
    | None -> Limits.Deadline.never
    | Some s -> Limits.Deadline.after ~clock:limits.Limits.clock s
  in
  let config = effective_config limits interrupt deadline config in
  let guard =
    Option.map
      (fun mb -> Limits.Mem_guard.install ~limit_mb:mb interrupt)
      limits.Limits.mem_mb
  in
  (* The writer lives exactly as long as the solve; Engine.solve forces
     pure-literal fixing off while it is attached. *)
  let proof =
    Option.map (fun path -> Qbf_solver.Proof.create ~path) proof_file
  in
  let t0 = limits.Limits.clock () in
  let r =
    Fun.protect
      ~finally:(fun () ->
        Option.iter Qbf_solver.Proof.close proof;
        Option.iter Limits.Mem_guard.remove guard)
      (fun () -> Qbf_solver.Engine.solve ~config ?proof formula)
  in
  let time = limits.Limits.clock () -. t0 in
  Report.make ~interrupt ~deadline ~config ~time
    ~nodes:(ST.nodes r.ST.stats) r

(* ------------------------------------------------------------------ *)
(* Worker-side entry: load + solve in one call                         *)

type source = Path of string | Inline of string

let source_label = function Path p -> p | Inline _ -> "<inline>"

(* The entry point a serving worker runs per job: structured load (the
   format is sniffed; [Inline] text gets a synthetic diagnostic label),
   then a budgeted solve.  Nothing escapes as an exception on the input
   side, so a worker never dies on a malformed instance — it reports the
   error over its pipe instead. *)
let solve_source ?limits ?interrupt ?config ?proof_file src =
  let loaded =
    match src with
    | Path p -> load p
    | Inline text -> load_string ~file:"<inline>" text
  in
  Result.map (fun f -> solve ?limits ?interrupt ?config ?proof_file f) loaded
