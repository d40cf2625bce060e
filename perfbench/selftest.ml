(* The benchmark's own test, on the smoke corpora (a few seconds):

   - every workload named in BENCHMARK.json runs and reports exactly the
     metrics BENCHMARK.json lists, with the listed units: the end-to-end
     ones untraced, the per-layer ones traced;
   - two runs at one seed repeat their trajectory exactly: the same
     counters, the same answers, the same fingerprint;
   - a deliberately wrong reference answer (--oracle-fault) makes the
     run report correct = false and exit non-zero.

     selftest PERFBENCH_EXE BENCHMARK_JSON ROOT *)

module Json = Qbf_obs.Json

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun m ->
      incr failures;
      prerr_endline ("perfbench selftest: FAIL " ^ m))
    fmt

let read_file path = In_channel.with_open_bin path In_channel.input_all

let run exe args =
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' in
  let code =
    match Unix.close_process_in ic with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> 255
  in
  (List.filter (( <> ) "") lines, code)

let result lines =
  match List.rev lines with
  | last :: _ -> ( try Json.of_string last with _ -> Json.Null)
  | [] -> Json.Null

(* (name, unit) pairs of a spec list or of a result's metrics *)
let spec_metrics spec key =
  match Json.member key spec with
  | Some (Json.List l) ->
      List.filter_map
        (fun m ->
          match (Json.member "name" m, Json.member "unit" m) with
          | Some (Json.String n), Some (Json.String u) -> Some (n, u)
          | Some (Json.String n), None -> Some (n, "")
          | _ -> None)
        l
  | _ -> []

let result_metrics r =
  match Json.member "metrics" r with
  | Some (Json.Obj kvs) ->
      List.map
        (fun (n, v) ->
          (n, Option.value ~default:"?" (Option.bind (Json.member "unit" v) Json.to_string_opt)))
        kvs
  | _ -> []

let trajectory lines =
  List.filter
    (fun l ->
      String.starts_with ~prefix:"# count " l
      || String.starts_with ~prefix:"# fingerprint " l)
    lines

let () =
  let exe =
    if Filename.is_relative Sys.argv.(1) then Filename.concat (Sys.getcwd ()) Sys.argv.(1)
    else Sys.argv.(1)
  in
  let spec = Json.of_string (read_file Sys.argv.(2)) in
  let root = Sys.argv.(3) in
  let work = Filename.concat (Sys.getcwd ()) "_selftest" in
  let base w trace extra =
    [ "--workload"; w; "--seed"; "5"; "--seconds"; "0"; "--trace"; trace;
      "--smoke"; "--root"; root; "--work"; work ]
    @ extra
  in
  let sort = List.sort compare in
  List.iter
    (fun (w, _) ->
      let check_run label trace (lines, code) =
        let r = result lines in
        if code <> 0 then fail "%s %s: exit %d" w label code;
        if Json.member "correct" r <> Some (Json.Bool true) then
          fail "%s %s: not correct" w label;
        let want = sort (spec_metrics spec (if trace then "per_layer" else "end_to_end")) in
        if sort (result_metrics r) <> want then
          fail "%s %s: metrics differ from BENCHMARK.json" w label
      in
      let a = run exe (base w "0" []) and b = run exe (base w "0" []) in
      check_run "untraced" false a;
      check_run "untraced (repeat)" false b;
      if trajectory (fst a) = [] || trajectory (fst a) <> trajectory (fst b) then
        fail "%s: two runs at one seed left different trajectories" w;
      check_run "traced" true (run exe (base w "1" []));
      let lines, code = run exe (base w "0" [ "--oracle-fault" ]) in
      if code = 0 then fail "%s: a wrong oracle answer still exited 0" w;
      if Json.member "correct" (result lines) <> Some (Json.Bool false) then
        fail "%s: a wrong oracle answer still reported correct" w)
    (spec_metrics spec "workloads");
  if spec_metrics spec "workloads" = [] then fail "no workloads in %s" Sys.argv.(2);
  if !failures > 0 then exit 1;
  print_endline "perfbench selftest: ok"
