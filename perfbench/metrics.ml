(* Sample sets and the benchmark's reporting rules.

   A timing is reported as its median plus the highest percentile on the
   ladder below that still has at least ten samples beyond it, together
   with the sample count: a p99 read from 200 samples is two samples
   deep and says nothing about the tail. *)

type samples = { mutable data : int array; mutable len : int }

let samples () = { data = Array.make 256 0; len = 0 }

let add s v =
  if s.len = Array.length s.data then begin
    let bigger = Array.make (2 * s.len) 0 in
    Array.blit s.data 0 bigger 0 s.len;
    s.data <- bigger
  end;
  s.data.(s.len) <- v;
  s.len <- s.len + 1

let count s = s.len

let append ~into s =
  for i = 0 to s.len - 1 do
    add into s.data.(i)
  done

let sorted s =
  let a = Array.sub s.data 0 s.len in
  Array.sort compare a;
  a

(* 1-based nearest rank of the [p]th percentile of [n] samples.  The
   epsilon keeps binary rounding from pushing an exact rank (99.9% of
   10000) up by one. *)
let rank n p = int_of_float (Float.ceil ((p /. 100.0 *. float_of_int n) -. 1e-9))

(* Nearest-rank percentile of a sorted array: the smallest value with at
   least [p]% of the samples at or below it.  0 when empty. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0 else sorted.(max 0 (min (n - 1) (rank n p - 1)))

let ladder = [ 99.99; 99.9; 99.0; 90.0 ]

let min_beyond = 10

(* Samples ranked above the [p]th percentile of [n]. *)
let beyond n p = n - rank n p

(* The highest ladder percentile with at least [min_beyond] samples beyond
   it; the median when even p90 is too thin. *)
let tail_percentile n =
  match List.find_opt (fun p -> beyond n p >= min_beyond) ladder with
  | Some p -> p
  | None -> 50.0

type summary = { n : int; p50 : int; tail_p : float; tail : int }

let summarize s =
  let a = sorted s in
  let n = Array.length a in
  let tail_p = tail_percentile n in
  { n; p50 = percentile a 50.0; tail_p; tail = percentile a tail_p }

let pp_pct p =
  if Float.is_integer p then Printf.sprintf "p%.0f" p else Printf.sprintf "p%g" p

(* A measurement window on the simulated clock, half-open [t0, t1):
   warm-up before it and the final drain after it are excluded. *)
type window = { t0 : int; t1 : int }

let in_window w t = t >= w.t0 && t < w.t1

(* Keep the values whose start time falls inside the window. *)
let trim w ~starts ~values =
  let out = samples () in
  for i = 0 to count starts - 1 do
    if in_window w starts.data.(i) then add out values.data.(i)
  done;
  out

let median_float = function
  | [] -> 0.0
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The highest offered rate whose p99 meets [limit], from [(rate, p99)]
   points in increasing rate order.  Between the last passing and the
   first failing rate it interpolates linearly on p99, so a small change
   in latency moves the figure a little instead of stepping it a whole
   rate.  A p99 of [max_int] (more than 1% refused) gives no slope: the
   figure is then the last passing rate.  0 when the lowest rate fails. *)
let slo_rate ~limit points =
  let rec go prev = function
    | [] -> ( match prev with Some (r, _) -> r | None -> 0.0)
    | (r, p) :: rest when p <= limit -> go (Some (r, p)) rest
    | (r, p) :: _ -> (
      match prev with
      | None -> 0.0
      | Some (r0, _) when p = max_int -> r0
      | Some (r0, p0) ->
        r0 +. ((r -. r0) *. float_of_int (limit - p0) /. float_of_int (p - p0)))
  in
  go None points
