(* Wire protocol between the serving supervisor and its workers:
   length-prefixed JSON frames over a pipe.

   A frame is `<decimal byte length>\n<payload>`: the ASCII length line
   makes truncation and garbage trivially detectable (a worker that
   crashes mid-write, or one injected to emit noise, must never wedge or
   crash the supervisor), and the payload is one Qbf_obs.Json value.

   Two reading regimes:
   - the worker blocks on its job pipe, so it uses the blocking
     {!read_frame};
   - the supervisor must never block on a worker (a hung worker would
     hang the service), so it feeds whatever [select]-signalled bytes it
     has into a {!decoder} and pulls complete frames out. *)

module Json = Qbf_obs.Json

let max_frame_bytes = 16 * 1024 * 1024
(* Far above any realistic result frame; a length beyond this is noise. *)

(* ------------------------------------------------------------------ *)
(* Frame writing                                                       *)

(* One [Unix.write] call per frame when it fits PIPE_BUF, so frames from
   a live worker are never interleaved with its death. *)
let write_frame fd json =
  let payload = Json.to_string json in
  let frame =
    Printf.sprintf "%d\n%s" (String.length payload) payload
  in
  let b = Bytes.of_string frame in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      let w = Unix.write fd b off (n - off) in
      if w > 0 then go (off + w)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Incremental decoding (supervisor side)                              *)

type decoder = {
  mutable buf : Bytes.t;
  mutable len : int; (* valid bytes in [buf] *)
}

let decoder () = { buf = Bytes.create 4096; len = 0 }

let decoder_pending d = d.len

let feed d src n =
  let need = d.len + n in
  if need > Bytes.length d.buf then begin
    let bigger = Bytes.create (max need (2 * Bytes.length d.buf)) in
    Bytes.blit d.buf 0 bigger 0 d.len;
    d.buf <- bigger
  end;
  Bytes.blit src 0 d.buf d.len n;
  d.len <- need

let drop d n =
  Bytes.blit d.buf n d.buf 0 (d.len - n);
  d.len <- d.len - n

type next = Frame of Json.t | Garbage of string | More

(* Pull one frame if a complete one is buffered.  Any malformed length
   line or unparsable payload is [Garbage]; the caller classifies the
   worker and kills it, so we do not try to resynchronise. *)
let next d =
  let rec find_nl i =
    if i >= d.len then None
    else if Bytes.get d.buf i = '\n' then Some i
    else find_nl (i + 1)
  in
  (* Length lines are short; if 20 bytes arrive without a newline the
     stream is not speaking the protocol. *)
  match find_nl 0 with
  | None -> if d.len > 20 then Garbage "unterminated length line" else More
  | Some nl -> (
      let line = Bytes.sub_string d.buf 0 nl in
      match int_of_string_opt (String.trim line) with
      | None -> Garbage (Printf.sprintf "bad length line %S" line)
      | Some len when len < 0 || len > max_frame_bytes ->
          Garbage (Printf.sprintf "frame length %d out of range" len)
      | Some len ->
          if d.len < nl + 1 + len then More
          else begin
            let payload = Bytes.sub_string d.buf (nl + 1) len in
            drop d (nl + 1 + len);
            match Json.of_string_res payload with
            | Ok j -> Frame j
            | Error m -> Garbage (Printf.sprintf "bad payload: %s" m)
          end)

(* ------------------------------------------------------------------ *)
(* Blocking read (worker side)                                         *)

type read_result =
  | R_frame of Json.t
  | R_closed (* clean EOF at a frame boundary *)
  | R_garbage of string
  | R_truncated (* EOF mid-frame *)

(* Pass the same [d] across calls when the peer may batch frames: a
   fresh decoder per call would swallow any bytes of the next frame that
   arrived in the same [read]. *)
let read_frame ?d fd =
  let d = match d with Some d -> d | None -> decoder () in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match next d with
    | Frame j -> R_frame j
    | Garbage m -> R_garbage m
    | More -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> if d.len = 0 then R_closed else R_truncated
        | n ->
            feed d chunk n;
            go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Job and answer records                                              *)

type job = {
  id : int;
  source : Qbf_run.Run.source;
  timeout_s : float option; (* per-job overrides of the batch defaults *)
  mem_mb : int option;
  max_nodes : int option;
}

let job ?timeout_s ?mem_mb ?max_nodes ~id source =
  { id; source; timeout_s; mem_mb; max_nodes }

(* A dispatch frame adds the attempt context to the job: which portfolio
   configuration to run, the escalated budget for this attempt, and the
   attempt ordinal (workers echo it back so a stale answer from a
   cancelled attempt can be recognised and dropped).  [d_proof], when
   set, is the path where the worker must record a Q-resolution trace
   of the attempt. *)
type dispatch = {
  d_job : job;
  d_config : string;
  d_attempt : int;
  d_proof : string option;
}

type answer = {
  a_id : int;
  a_attempt : int;
  a_outcome : Qbf_solver.Solver_types.outcome;
  a_time : float;
  a_stopped : string option;
  a_decisions : int;
  a_nodes : int;
  a_proof : string option;
      (* path of a complete certificate backing a conclusive outcome *)
  a_error : string option; (* input error text; outcome is Unknown *)
}

(* ---------- JSON (de)serialisation ---------------------------------- *)

let opt_float = function None -> Json.Null | Some f -> Json.Float f
let opt_int = function None -> Json.Null | Some i -> Json.Int i
let opt_string = function None -> Json.Null | Some s -> Json.String s

let json_of_dispatch d =
  let src =
    match d.d_job.source with
    | Qbf_run.Run.Path p -> ("path", Json.String p)
    | Qbf_run.Run.Inline text -> ("inline", Json.String text)
  in
  Json.Obj
    [
      ("type", Json.String "job");
      ("id", Json.Int d.d_job.id);
      ("attempt", Json.Int d.d_attempt);
      ("config", Json.String d.d_config);
      src;
      ("timeout_s", opt_float d.d_job.timeout_s);
      ("mem_mb", opt_int d.d_job.mem_mb);
      ("max_nodes", opt_int d.d_job.max_nodes);
      ("proof", opt_string d.d_proof);
    ]

let json_of_answer a =
  Json.Obj
    [
      ("type", Json.String "result");
      ("id", Json.Int a.a_id);
      ("attempt", Json.Int a.a_attempt);
      ("outcome", Json.String (Qbf_solver.Outcome.to_json_string a.a_outcome));
      ("time", Json.Float a.a_time);
      ("stopped", opt_string a.a_stopped);
      ("decisions", Json.Int a.a_decisions);
      ("nodes", Json.Int a.a_nodes);
      ("proof", opt_string a.a_proof);
      ("error", opt_string a.a_error);
    ]

(* Heartbeats carry a progress delta: nodes searched since the last
   beat, so the supervisor can tell slow progress from a true wedge.
   [nodes] is optional on decode for compatibility with old workers. *)
let json_of_heartbeat ~id ~attempt ~nodes =
  Json.Obj
    [ ("type", Json.String "hb"); ("id", Json.Int id);
      ("attempt", Json.Int attempt); ("nodes", Json.Int nodes) ]

(* ---------- Stats frames --------------------------------------------- *)

(* A worker's observability snapshot in flight: engine metrics and the
   phase profile for one (job, attempt), shipped piggy-backed before the
   result frame and periodically on the heartbeat path so even a worker
   later killed leaves its last snapshot.  Schema-versioned: a version
   mismatch is a decode error (the supervisor drops the frame rather
   than misread it). *)

let stats_schema = "qubed-worker-stats"
let stats_version = 2

type stats = {
  st_id : int;
  st_attempt : int;
  st_final : bool; (* true on the pre-result snapshot, false on periodic *)
  st_metrics : Qbf_obs.Metrics.snapshot option;
  st_profile : Qbf_obs.Profile.snapshot option;
}

let json_of_stats st =
  Json.Obj
    [
      ("type", Json.String "stats");
      ("schema", Json.String stats_schema);
      ("v", Json.Int stats_version);
      ("id", Json.Int st.st_id);
      ("attempt", Json.Int st.st_attempt);
      ("final", Json.Bool st.st_final);
      ( "metrics",
        match st.st_metrics with
        | None -> Json.Null
        | Some m -> Qbf_obs.Metrics.snapshot_to_json m );
      ( "profile",
        match st.st_profile with
        | None -> Json.Null
        | Some p -> Qbf_obs.Profile.snapshot_to_json p );
    ]

let member_int k j = Option.bind (Json.member k j) Json.to_int_opt
let member_float k j = Option.bind (Json.member k j) Json.to_float_opt
let member_string k j = Option.bind (Json.member k j) Json.to_string_opt

let member_opt conv k j =
  match Json.member k j with
  | None | Some Json.Null -> Ok None
  | Some v -> (
      match conv v with
      | Some x -> Ok (Some x)
      | None -> Error (Printf.sprintf "field %S ill-typed" k))

let dispatch_of_json j =
  match (member_int "id" j, member_string "config" j, member_int "attempt" j)
  with
  | Some id, Some d_config, Some d_attempt -> (
      let source =
        match (member_string "path" j, member_string "inline" j) with
        | Some p, _ -> Some (Qbf_run.Run.Path p)
        | None, Some text -> Some (Qbf_run.Run.Inline text)
        | None, None -> None
      in
      match source with
      | None -> Error "job frame has neither path nor inline"
      | Some source -> (
          match
            ( member_opt Json.to_float_opt "timeout_s" j,
              member_opt Json.to_int_opt "mem_mb" j,
              member_opt Json.to_int_opt "max_nodes" j )
          with
          | Ok timeout_s, Ok mem_mb, Ok max_nodes ->
              Ok
                {
                  d_job = { id; source; timeout_s; mem_mb; max_nodes };
                  d_config;
                  d_attempt;
                  (* absent on frames from pre-certificate supervisors *)
                  d_proof = member_string "proof" j;
                }
          | Error m, _, _ | _, Error m, _ | _, _, Error m -> Error m))
  | _ -> Error "job frame missing id/config/attempt"

type worker_msg =
  | Msg_answer of answer
  | Msg_heartbeat of { hb_id : int; hb_attempt : int; hb_nodes : int }
  | Msg_stats of stats

(* The forked worker's encoding of its messages; [worker_msg_of_json]
   below is the supervisor's inverse. *)
let json_of_worker_msg = function
  | Msg_answer a -> json_of_answer a
  | Msg_heartbeat { hb_id; hb_attempt; hb_nodes } ->
      json_of_heartbeat ~id:hb_id ~attempt:hb_attempt ~nodes:hb_nodes
  | Msg_stats st -> json_of_stats st

let stats_of_json j =
  match (member_string "schema" j, member_int "v" j) with
  | Some s, _ when s <> stats_schema ->
      Error (Printf.sprintf "stats frame schema %S, expected %S" s stats_schema)
  | _, Some v when v <> stats_version ->
      Error (Printf.sprintf "stats frame version %d, expected %d" v stats_version)
  | Some _, Some _ -> (
      match (member_int "id" j, member_int "attempt" j) with
      | Some st_id, Some st_attempt -> (
          let final =
            match Json.member "final" j with
            | Some (Json.Bool b) -> b
            | _ -> false
          in
          let metrics =
            match Json.member "metrics" j with
            | None | Some Json.Null -> Ok None
            | Some m ->
                Result.map Option.some (Qbf_obs.Metrics.snapshot_of_json m)
          in
          let profile =
            match Json.member "profile" j with
            | None | Some Json.Null -> Ok None
            | Some p ->
                Result.map Option.some (Qbf_obs.Profile.snapshot_of_json p)
          in
          match (metrics, profile) with
          | Ok st_metrics, Ok st_profile ->
              Ok { st_id; st_attempt; st_final = final; st_metrics; st_profile }
          | Error m, _ | _, Error m ->
              Error (Printf.sprintf "stats frame: %s" m))
      | _ -> Error "stats frame missing id/attempt")
  | _ -> Error "stats frame missing schema/version"

let worker_msg_of_json j =
  match member_string "type" j with
  | Some "hb" -> (
      match (member_int "id" j, member_int "attempt" j) with
      | Some hb_id, Some hb_attempt ->
          (* nodes absent on frames from pre-telemetry workers *)
          let hb_nodes =
            match member_int "nodes" j with Some n -> n | None -> 0
          in
          Ok (Msg_heartbeat { hb_id; hb_attempt; hb_nodes })
      | _ -> Error "heartbeat frame missing id/attempt")
  | Some "stats" -> Result.map (fun st -> Msg_stats st) (stats_of_json j)
  | Some "result" -> (
      match
        ( member_int "id" j,
          member_int "attempt" j,
          member_string "outcome" j,
          member_float "time" j,
          member_int "decisions" j,
          member_int "nodes" j )
      with
      | Some a_id, Some a_attempt, Some o, Some a_time, Some a_decisions,
        Some a_nodes -> (
          match Qbf_solver.Outcome.of_string o with
          | None -> Error (Printf.sprintf "unknown outcome %S" o)
          | Some a_outcome ->
              Ok
                (Msg_answer
                   {
                     a_id;
                     a_attempt;
                     a_outcome;
                     a_time;
                     a_stopped = member_string "stopped" j;
                     a_decisions;
                     a_nodes;
                     a_proof = member_string "proof" j;
                     a_error = member_string "error" j;
                   }))
      | _ -> Error "result frame missing fields")
  | Some other -> Error (Printf.sprintf "unknown frame type %S" other)
  | None -> Error "frame has no type"
