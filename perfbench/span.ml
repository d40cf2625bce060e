(* In-memory span recorder for the traced pass.

   A span covers one call into a public function of a layer, timed from
   the benchmark's own code: name, start, end, the span that was open
   when it started (its parent), and the pass it belongs to.  Spans stay
   in memory until the benchmark ends; nothing is written while a pass
   runs.  An untraced recorder records nothing, so untraced passes only
   pay for the clock reads their metrics need anyway. *)

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int; (* 0 for a root span *)
  pass : int;
}

type t = {
  on : bool;
  pass : int;
  mutable next : int;
  mutable open_ : int list; (* ids of the spans currently open *)
  mutable spans : span list; (* newest first *)
}

let create ~on ~pass = { on; pass; next = 1; open_ = []; spans = [] }
let now = Unix.gettimeofday
let current t = match t.open_ with id :: _ -> id | [] -> 0

(* [with_ t name f] runs [f] inside a span and returns its result with
   the elapsed seconds. *)
let with_ t name f =
  let start = now () in
  if not t.on then begin
    let v = f () in
    (v, now () -. start)
  end
  else begin
    let id = t.next in
    t.next <- id + 1;
    let parent = current t in
    t.open_ <- id :: t.open_;
    let finish () =
      t.open_ <- List.tl t.open_;
      let stop = now () in
      t.spans <- { id; name; start; stop; parent; pass = t.pass } :: t.spans;
      stop -. start
    in
    match f () with
    | v -> (v, finish ())
    | exception e ->
        ignore (finish ());
        raise e
  end

let spans t = List.rev t.spans

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0., None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Self time per span name: each span's duration minus the part of it
   that its children cover, summed over spans of the same name. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun (s : span) ->
      if s.parent <> 0 then
        Hashtbl.replace children (s.pass, s.parent)
          ((s.start, s.stop)
          :: Option.value ~default:[]
               (Hashtbl.find_opt children (s.pass, s.parent))))
    spans;
  let acc = Hashtbl.create 16 in
  List.iter
    (fun (s : span) ->
      let kids =
        Option.value ~default:[] (Hashtbl.find_opt children (s.pass, s.id))
      in
      let self = s.stop -. s.start -. covered ~lo:s.start ~hi:s.stop kids in
      Hashtbl.replace acc s.name
        (self +. Option.value ~default:0. (Hashtbl.find_opt acc s.name)))
    spans;
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc [] |> List.sort compare

let to_json (s : span) =
  Printf.sprintf
    {|{"id":%d,"name":"%s","start":%.6f,"end":%.6f,"parent":%d,"pass":%d}|}
    s.id s.name s.start s.stop s.parent s.pass
