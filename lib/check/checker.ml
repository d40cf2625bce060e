(* Independent Q-resolution / term-resolution proof checker.

   Replays a qproof trace (see lib/solver/proof.ml for the grammar)
   with its own minimal resolution rules, sharing nothing with the
   solver beyond the core formula types and the QDIMACS readers.  The
   checker works directly on DIMACS integers: a literal is a nonzero
   int, its variable the absolute value.

   Two modes:

   - {e formula mode} ([?formula] given, the CLI's only mode): every
     variable declaration is cross-checked against the formula's prefix
     (quantifier and DFS discovery/finish timestamps — the solver copies
     them verbatim from [Prefix], so equality is exact), every input
     clause must occur in the formula's matrix, and a [true] conclusion
     additionally requires every non-tautological matrix clause to be
     registered and alive (an axiom term must entail the {e whole}
     matrix, not a subset).
   - {e trust mode} (no formula): declarations and input clauses are
     taken at face value.  Only for white-box tests of incremental
     sessions, where no single QDIMACS file describes the final formula.

   Soundness rules enforced on every record:
   - resolution pivots carry the kind-appropriate quantifier
     (existential for clauses, universal for terms) and appear with
     opposite polarities in the two antecedents;
   - resolvents are recomputed — reduction after every resolution — and
     must equal the recorded literal set; tautological resolvents are
     rejected unless the clash is an admissible long-distance merge
     (reducible-kind variable that the step's pivot ≺-precedes, or a
     pair inherited whole from one antecedent); a surviving merge is
     recorded with both polarities and never serves as a pivot;
   - antecedents must be alive: retracted ids ([x] records) stay known
     but unusable, unknown ids are rejected;
   - an axiom term must be consistent and cover every alive input
     clause;
   - registering an input clause kills every alive term: terms certify
     the matrix {e as it stood}, and a grown matrix invalidates them
     (the solver retracts its learned cubes explicitly, but axiom terms
     have no database id, so the checker must expire them itself);
   - a conclusion needs an alive constraint of the right kind with an
     empty literal set. *)

open Qbf_core

type cinfo = {
  term : bool;
  input : bool;
  mutable alive : bool;
  lits : int array; (* sorted, duplicate-free DIMACS *)
}

type verdict = { conclusions : bool list; steps : int }
type failure = { line : int; msg : string }

exception Fail of string

let failf fmt = Printf.ksprintf (fun m -> raise (Fail m)) fmt

(* Variables live in arrays indexed by DIMACS id (slot 0 unused), sized
   from the formula in formula mode and grown on declaration in trust
   mode.  The working sets of a resolution chain and an axiom's literal
   choice reuse the [ws]/[mg]/[pr] arrays across records through stamps
   (the seen[] idiom): a slot belongs to the current record only if it
   carries the current stamp, so nothing is cleared between records. *)
type st = {
  mutable quant : Bytes.t; (* '\000' undeclared, 'e' or 'a' *)
  mutable dt : int array; (* DFS discovery time *)
  mutable ft : int array; (* DFS finish time *)
  mutable ws : int array; (* 2 * stamp + (literal > 0): in the working set *)
  mutable mg : int array; (* stamp: merged (both polarities) *)
  mutable pr : int array; (* stamp: a pair of the current antecedent *)
  mutable members : int array; (* working-set variables, [nmembers] used *)
  mutable nmembers : int;
  mutable stamp : int;
  cons : (int, cinfo) Hashtbl.t; (* proof id -> constraint *)
  alive_inputs : (int, int array) Hashtbl.t; (* pid -> lits, for coverage *)
  alive_terms : (int, unit) Hashtbl.t; (* expired wholesale on growth *)
  mutable steps : int;
  mutable concl_rev : bool list;
  formula : Formula.t option;
  fkeys : (int array, unit) Hashtbl.t; (* non-tautological matrix clauses *)
}

(* Sorted, duplicate-free array of a literal list. *)
let lit_set lits = Array.of_list (List.sort_uniq Int.compare lits)

let clause_key c = lit_set (List.map Lit.to_dimacs (Clause.to_list c))

let resize st cap =
  let grow a = Array.append a (Array.make (cap - Array.length a) 0) in
  let q = Bytes.make cap '\000' in
  Bytes.blit st.quant 0 q 0 (Bytes.length st.quant);
  st.quant <- q;
  st.dt <- grow st.dt;
  st.ft <- grow st.ft;
  st.ws <- grow st.ws;
  st.mg <- grow st.mg;
  st.pr <- grow st.pr;
  st.members <- grow st.members

let init formula =
  let fkeys = Hashtbl.create 256 in
  let cap =
    match formula with
    | Some f ->
        List.iter
          (fun c ->
            if not (Clause.is_tautology c) then
              Hashtbl.replace fkeys (clause_key c) ())
          (Formula.matrix f);
        Formula.nvars f + 1
    | None -> 64
  in
  {
    quant = Bytes.make cap '\000';
    dt = Array.make cap 0;
    ft = Array.make cap 0;
    ws = Array.make cap 0;
    mg = Array.make cap 0;
    pr = Array.make cap 0;
    members = Array.make cap 0;
    nmembers = 0;
    stamp = 0;
    cons = Hashtbl.create 1024;
    alive_inputs = Hashtbl.create 256;
    alive_terms = Hashtbl.create 64;
    steps = 0;
    concl_rev = [];
    formula;
    fkeys;
  }

let fresh_stamp st =
  st.stamp <- st.stamp + 1;
  st.stamp

(* The quantifier of a declared variable: [true] for existential. *)
let exist st v =
  if v <= 0 || v >= Bytes.length st.quant then
    failf "variable %d not declared" v;
  match Bytes.get st.quant v with
  | 'e' -> true
  | 'a' -> false
  | _ -> failf "variable %d not declared" v

(* z ≺ z' through DFS timestamps, eq. 13 of the paper. *)
let precedes st v v' = st.dt.(v) < st.dt.(v') && st.dt.(v') <= st.ft.(v)

let constr st pid =
  match Hashtbl.find_opt st.cons pid with
  | Some c -> c
  | None -> failf "unknown constraint id %d" pid

let alive_constr st pid =
  let c = constr st pid in
  if not c.alive then failf "constraint %d has been retracted" pid;
  c

(* Index of the first element of [ds.(0 .. n-1)] (sorted) above [x]. *)
let first_above ds n x =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if ds.(mid) > x then hi := mid else lo := mid + 1
  done;
  !lo

(* Working-set slots for stamp [s]: [ws.(v)] encodes the one polarity
   kept for [v]; merged variables expand to both in the resolvent. *)
let enc s l = (s lsl 1) lor if l > 0 then 1 else 0
let in_ws st s v = st.ws.(v) lsr 1 = s
let lit_of st v = if st.ws.(v) land 1 = 1 then v else -v

let insert st s v l =
  st.ws.(v) <- enc s l;
  st.members.(st.nmembers) <- v;
  st.nmembers <- st.nmembers + 1

(* Universal reduction of a clause / existential reduction of a term on
   the working set: drop each reducible-kind variable that precedes no
   kept-kind variable of the set.  By eq. 13, [v] precedes a kept-kind
   [w] iff d(v) < d(w) <= f(v), so one binary search over the sorted
   kept-kind discovery times decides each variable.  Blockers are
   kept-kind and never removed, so one pass suffices.  Also compacts
   [members], dropping slots whose variable left the set. *)
let renorm st ~term s =
  let kept_exist = not term in
  let n = ref 0 and ds = ref [] in
  for i = 0 to st.nmembers - 1 do
    let v = st.members.(i) in
    if in_ws st s v then begin
      st.members.(!n) <- v;
      incr n;
      if exist st v = kept_exist then ds := st.dt.(v) :: !ds
    end
  done;
  let ds = Array.of_list !ds in
  Array.stable_sort Int.compare ds;
  let nk = Array.length ds and m = ref 0 in
  for i = 0 to !n - 1 do
    let v = st.members.(i) in
    let keep =
      exist st v = kept_exist
      ||
      let j = first_above ds nk st.dt.(v) in
      j < nk && ds.(j) <= st.ft.(v)
    in
    if keep then begin
      st.members.(!m) <- v;
      incr m
    end
    else begin
      st.ws.(v) <- 0;
      st.mg.(v) <- 0
    end
  done;
  st.nmembers <- !m

(* Replay a resolution chain and return the sorted resolvent.

   A clash of polarities while adding an antecedent's literals is
   admitted as a long-distance *merge* (Zhang-Malik; sound per
   Balabanov-Jiang, here with the quantifier tree as the dependency
   order) exactly when the clashing variable is of the reducible kind —
   universal in a clause chain, existential in a term chain — and the
   pivot of the current resolution step ≺-precedes it, so the merged
   variable's player sees the pivot.  Merged variables keep one polarity
   in the working set, reduce under the normal rule (both polarities go
   together), and surviving pairs appear in the resolvent with both
   polarities.  A registered constraint carrying such a pair re-enters a
   later chain as an *inherited* merge: its admissibility was
   established by the step that derived it, so only the reducible-kind
   restriction is re-checked; resolving on a merged variable remains
   forbidden. *)
let resolve_chain st ~term ~first ~chain =
  let s = fresh_stamp st in
  st.nmembers <- 0;
  (* Mark the variables [c] carries with both polarities; returns the
     stamp [pr] holds for them. *)
  let mark_pairs c =
    let once = fresh_stamp st in
    let twice = fresh_stamp st in
    Array.iter
      (fun l ->
        let v = abs l in
        st.pr.(v) <- (if st.pr.(v) = once then twice else once))
      c.lits;
    twice
  in
  (* [pivot] is 0 for the starting antecedent *)
  let add_all ~pivot ~ps c =
    Array.iter
      (fun l ->
        let v = abs l in
        if v = pivot then ()
        else if st.pr.(v) = ps then begin
          if exist st v <> term then
            failf "tautological resolvent on variable %d" v;
          if not (in_ws st s v) then insert st s v l;
          st.mg.(v) <- s
        end
        else if not (in_ws st s v) then insert st s v l
        else if lit_of st v <> l && st.mg.(v) <> s then
          if pivot > 0 && exist st v = term && precedes st pivot v then
            st.mg.(v) <- s
          else failf "tautological resolvent on variable %d" v)
      c.lits
  in
  let c0 = alive_constr st first in
  if c0.term <> term then
    failf "starting antecedent %d has the wrong kind" first;
  add_all ~pivot:0 ~ps:(mark_pairs c0) c0;
  renorm st ~term s;
  List.iter
    (fun (pvar, ant) ->
      if exist st pvar = term then
        failf "pivot %d has the wrong quantifier for %s resolution" pvar
          (if term then "term" else "clause");
      let a = alive_constr st ant in
      if a.term <> term then failf "antecedent %d has the wrong kind" ant;
      if not (in_ws st s pvar) then
        failf "pivot %d is not in the working set" pvar;
      let l = lit_of st pvar in
      if st.mg.(pvar) = s then failf "pivot %d is a merged literal" pvar;
      let ps = mark_pairs a in
      if st.pr.(pvar) = ps then
        failf "antecedent %d carries pivot %d as a merged pair" ant pvar;
      if not (Array.mem (-l) a.lits) then
        failf "antecedent %d lacks the opposite literal of pivot %d" ant pvar;
      st.ws.(pvar) <- 0;
      add_all ~pivot:pvar ~ps a;
      renorm st ~term s)
    chain;
  let out = ref [] in
  for i = 0 to st.nmembers - 1 do
    let v = st.members.(i) in
    let l = lit_of st v in
    out := l :: !out;
    if st.mg.(v) = s then out := -l :: !out
  done;
  lit_set !out

let register st pid ~term ~input lits =
  if pid <= 0 then failf "invalid constraint id %d" pid;
  if Hashtbl.mem st.cons pid then failf "duplicate constraint id %d" pid;
  List.iter (fun l -> ignore (exist st (abs l))) lits;
  let lits = lit_set lits in
  Hashtbl.replace st.cons pid { term; input; alive = true; lits };
  if input then Hashtbl.replace st.alive_inputs pid lits;
  if term then Hashtbl.replace st.alive_terms pid ();
  lits

(* A grown matrix invalidates every term derived against the old one. *)
let expire_terms st =
  Hashtbl.iter (fun pid () -> (constr st pid).alive <- false) st.alive_terms;
  Hashtbl.reset st.alive_terms

let check_input st pid lits =
  let lits = register st pid ~term:false ~input:true lits in
  (match st.formula with
  | Some _ ->
      if not (Hashtbl.mem st.fkeys lits) then
        failf "input clause %d does not occur in the formula" pid
  | None -> ());
  expire_terms st

let check_axiom st pid lits =
  let s = fresh_stamp st in
  List.iter
    (fun l ->
      let v = abs l in
      ignore (exist st v);
      if in_ws st s v && st.ws.(v) <> enc s l then
        failf "axiom term is inconsistent on variable %d" v;
      st.ws.(v) <- enc s l)
    lits;
  Hashtbl.iter
    (fun ipid clits ->
      if not (Array.exists (fun m -> st.ws.(abs m) = enc s m) clits) then
        failf "axiom term does not cover input clause %d" ipid)
    st.alive_inputs;
  ignore (register st pid ~term:true ~input:false lits)

let check_step st ~term pid ~first ~chain lits =
  let derived = resolve_chain st ~term ~first ~chain in
  if derived <> lit_set lits then
    failf "resolvent of constraint %d does not match the derivation" pid;
  ignore (register st pid ~term ~input:false lits)

let check_retract st pid =
  (* Retraction only ever weakens the prover, so retracting an already
     dead constraint (e.g. a term the checker expired on matrix growth
     before the solver's own retraction record arrived) is harmless. *)
  let c = constr st pid in
  c.alive <- false;
  Hashtbl.remove st.alive_inputs pid;
  Hashtbl.remove st.alive_terms pid

let check_final st ~outcome pid =
  let c = alive_constr st pid in
  if c.term <> outcome then
    failf "conclusion %s needs an empty %s, constraint %d is not one"
      (if outcome then "true" else "false")
      (if outcome then "term" else "clause")
      pid;
  if c.lits <> [||] then failf "conclusion constraint %d is not empty" pid;
  (match (st.formula, outcome) with
  | Some _, true ->
      (* The axiom terms behind an empty term only covered the clauses
         alive at the time; a true conclusion is sound only if those are
         all of the formula's (non-tautological) clauses. *)
      let alive_keys = Hashtbl.create 256 in
      Hashtbl.iter
        (fun _ lits -> Hashtbl.replace alive_keys lits ())
        st.alive_inputs;
      Hashtbl.iter
        (fun key () ->
          if not (Hashtbl.mem alive_keys key) then
            raise
              (Fail
                 "true conclusion with a formula clause never registered \
                  (or retracted)"))
        st.fkeys
  | _ -> ());
  st.concl_rev <- outcome :: st.concl_rev

let check_declare st v quant_char d f =
  if v <= 0 then failf "invalid variable %d" v;
  let exist =
    match quant_char with
    | "e" -> true
    | "a" -> false
    | q -> failf "invalid quantifier %S" q
  in
  (match st.formula with
  | Some fm ->
      let p = Formula.prefix fm in
      if v > Formula.nvars fm then
        failf "declared variable %d exceeds the formula's %d" v
          (Formula.nvars fm);
      if Prefix.is_exists p (v - 1) <> exist then
        failf "variable %d declared with the wrong quantifier" v;
      if Prefix.discovery p (v - 1) <> d || Prefix.finish p (v - 1) <> f then
        failf "variable %d declared with the wrong prefix position" v
  | None ->
      let limit = Qbf_io.Qdimacs.max_declared_vars in
      if v > limit then
        failf "declared variable %d exceeds the limit %d" v limit;
      let cap = Array.length st.dt in
      if v >= cap then resize st (min (limit + 1) (max (v + 1) (2 * cap))));
  Bytes.set st.quant v (if exist then 'e' else 'a');
  st.dt.(v) <- d;
  st.ft.(v) <- f

(* ---------- trace parsing ---------------------------------------------- *)

let int_of tok =
  match int_of_string_opt tok with
  | Some n -> n
  | None -> failf "malformed integer %S" tok

(* Split [toks] at the terminating "0" into literals (nonzero ints). *)
let rec lits_until_zero acc = function
  | [] -> failf "missing terminating 0"
  | "0" :: rest -> (List.rev acc, rest)
  | tok :: rest ->
      let l = int_of tok in
      if l = 0 then failf "malformed integer %S" tok;
      lits_until_zero (l :: acc) rest

(* The (PVAR ANT)* 0 chain section of an r record. *)
let rec chain_until_zero acc = function
  | [] -> failf "missing terminating 0 of the chain"
  | "0" :: rest -> (List.rev acc, rest)
  | pvar :: ant :: rest ->
      let pv = int_of pvar and a = int_of ant in
      if pv <= 0 then failf "invalid pivot variable %d" pv;
      chain_until_zero ((pv, a) :: acc) rest
  | [ _ ] -> failf "dangling pivot without an antecedent"

let expect_end = function
  | [] -> ()
  | tok :: _ -> failf "trailing token %S" tok

let check_record st tokens =
  match tokens with
  | [] -> ()
  | [ "v"; v; q; d; f ] -> check_declare st (int_of v) q (int_of d) (int_of f)
  | "i" :: pid :: rest ->
      let lits, rest = lits_until_zero [] rest in
      expect_end rest;
      st.steps <- st.steps + 1;
      check_input st (int_of pid) lits
  | "a" :: pid :: rest ->
      let lits, rest = lits_until_zero [] rest in
      expect_end rest;
      st.steps <- st.steps + 1;
      check_axiom st (int_of pid) lits
  | "r" :: kind :: pid :: first :: rest ->
      let term =
        match kind with
        | "c" -> false
        | "t" -> true
        | k -> failf "invalid resolution kind %S" k
      in
      let chain, rest = chain_until_zero [] rest in
      let lits, rest = lits_until_zero [] rest in
      expect_end rest;
      st.steps <- st.steps + 1;
      check_step st ~term (int_of pid) ~first:(int_of first) ~chain lits
  | [ "x"; pid ] -> check_retract st (int_of pid)
  | [ "f"; o; pid ] ->
      let outcome =
        match o with
        | "1" -> true
        | "0" -> false
        | _ -> failf "invalid conclusion flag %S" o
      in
      check_final st ~outcome (int_of pid)
  | tok :: _ -> failf "unrecognized record %S" tok

let tokens_of line =
  List.filter (fun t -> t <> "") (String.split_on_char ' ' line)

let check_channel ?formula ic =
  let st = init formula in
  let lineno = ref 0 in
  let fail_at msg = Error { line = !lineno; msg } in
  let next () =
    match input_line ic with
    | line ->
        incr lineno;
        Some line
    | exception End_of_file -> None
  in
  (* Header: the first non-comment, non-blank line. *)
  let rec header () =
    match next () with
    | None -> failf "empty trace (no header)"
    | Some line -> (
        match tokens_of line with
        | [] | "c" :: _ -> header ()
        | [ "p"; "qproof"; v ] ->
            if int_of v <> 1 then failf "unsupported trace version %s" v
        | _ -> failf "missing 'p qproof 1' header")
  in
  let rec body () =
    match next () with
    | None -> Ok { conclusions = List.rev st.concl_rev; steps = st.steps }
    | Some line -> (
        match tokens_of line with
        | "c" :: _ -> body ()
        | tokens ->
            check_record st tokens;
            body ())
  in
  match
    header ();
    body ()
  with
  | r -> r
  | exception Fail msg -> fail_at msg

let check_file ?formula path =
  match open_in path with
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> check_channel ?formula ic)
  | exception Sys_error msg -> Error { line = 0; msg }

(* Format sniffing duplicated from Qbf_run.Run on purpose: the checker
   must not link solver code, and the decision is five lines. *)
let load_formula path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic -> (
      match
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      with
      | exception Sys_error msg -> Error msg
      | exception End_of_file -> Error (path ^ ": truncated read")
      | text ->
          let is_ncnf =
            let rec scan = function
              | [] -> false
              | line :: rest ->
                  let t = String.trim line in
                  if t = "" || t.[0] = 'c' then scan rest
                  else String.length t >= 6 && String.sub t 0 6 = "p ncnf"
            in
            scan (String.split_on_char '\n' text)
          in
          if is_ncnf then
            Qbf_io.Nqdimacs.parse_string_res text
            |> Result.map_error Qbf_io.Nqdimacs.string_of_error
          else
            Qbf_io.Qdimacs.parse_string_res text
            |> Result.map_error Qbf_io.Qdimacs.string_of_error)

let check_against ~formula_path proof_path =
  match load_formula formula_path with
  | Error msg -> Error { line = 0; msg = formula_path ^ ": " ^ msg }
  | Ok formula -> check_file ~formula proof_path
