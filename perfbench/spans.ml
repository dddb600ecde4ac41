(* The benchmark's own in-memory spans, recorded around each call into a
   layer's public API during the traced run.

   A span has a name (the layer call, e.g. ["shard.atomically"]), start
   and end on the simulated clock, the span that caused it (0 for a
   request's root) and the request it serves.  Nothing is written out
   until the run ends.  A layer's self time is its span's duration minus
   the part of that interval its child spans cover. *)

type span = {
  id : int;
  parent : int;
  name : string;
  req : int;
  start : int;
  mutable stop : int;
}

type t = { mutable spans : span array; mutable len : int; on : bool }

let create ~on =
  let dummy = { id = 0; parent = 0; name = ""; req = 0; start = 0; stop = 0 } in
  { spans = Array.make (if on then 4096 else 1) dummy; len = 0; on }

(* Returns the new span's id, or 0 (no span) when recording is off. *)
let open_ t ?(parent = 0) ~req ~now name =
  if not t.on then 0
  else begin
    if t.len = Array.length t.spans then begin
      let bigger = Array.make (2 * t.len) t.spans.(0) in
      Array.blit t.spans 0 bigger 0 t.len;
      t.spans <- bigger
    end;
    let id = t.len + 1 in
    t.spans.(t.len) <- { id; parent; name; req; start = now; stop = now };
    t.len <- t.len + 1;
    id
  end

let close t id ~now = if id > 0 then t.spans.(id - 1).stop <- now

(* Record an interval that is already over. *)
let interval t ?parent ~req ~start ~stop name =
  let id = open_ t ?parent ~req ~now:start name in
  close t id ~now:stop;
  id

(* Length of the union of [intervals], each clipped to [lo, hi). *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if a < b then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, (ca, cb)) (a, b) ->
        if cb < 0 then (total, (a, b))
        else if a <= cb then (total, (ca, max cb b))
        else (total + (cb - ca), (a, b)))
      (0, (0, -1))
      clipped
  in
  match last with ca, cb when cb >= 0 -> total + (cb - ca) | _ -> total

type layer_time = { l_name : string; l_spans : int; l_total : int; l_self : int }

(* Per span name: how many spans, their summed duration and summed self
   time, sorted by descending self time. *)
let self_times t =
  let children = Hashtbl.create 1024 in
  for i = 0 to t.len - 1 do
    let s = t.spans.(i) in
    if s.parent > 0 then Hashtbl.add children s.parent (s.start, s.stop)
  done;
  let acc = Hashtbl.create 16 in
  for i = 0 to t.len - 1 do
    let s = t.spans.(i) in
    let dur = s.stop - s.start in
    let self =
      dur - covered ~lo:s.start ~hi:s.stop (Hashtbl.find_all children s.id)
    in
    let n, tot, sf =
      Option.value (Hashtbl.find_opt acc s.name) ~default:(0, 0, 0)
    in
    Hashtbl.replace acc s.name (n + 1, tot + dur, sf + self)
  done;
  Hashtbl.fold
    (fun name (n, tot, sf) l ->
      { l_name = name; l_spans = n; l_total = tot; l_self = sf } :: l)
    acc []
  |> List.sort (fun a b -> compare (b.l_self, a.l_name) (a.l_self, b.l_name))

(* Every root span's duration must equal the self time summed over its
   whole subtree when children stay inside their parents — the check
   that the attribution neither loses nor double-counts cycles. *)
let roots_total t =
  let tot = ref 0 in
  for i = 0 to t.len - 1 do
    let s = t.spans.(i) in
    if s.parent = 0 then tot := !tot + (s.stop - s.start)
  done;
  !tot
