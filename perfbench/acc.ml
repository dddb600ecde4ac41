(* Measurements of one workload, accumulated over its legs.

   A per-op or per-cycle figure is kept as a numerator and a denominator
   summed over every leg, so the reported value is a ratio of totals, not
   an average of per-leg ratios.  Latency samples are pooled over legs
   before percentiles are taken.  Host set-up times are kept per leg and
   reported as their median. *)

type t = {
  ratios : (string, float * float) Hashtbl.t;
  samples : (string, Metrics.samples) Hashtbl.t;
  mutable setups : float list;
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
}

let create () =
  {
    ratios = Hashtbl.create 64;
    samples = Hashtbl.create 16;
    setups = [];
    attempted = 0;
    failed = 0;
    errors = [];
  }

let ratio t name num den =
  let n, d = Option.value (Hashtbl.find_opt t.ratios name) ~default:(0.0, 0.0) in
  Hashtbl.replace t.ratios name (n +. num, d +. den)

let value t name =
  match Hashtbl.find_opt t.ratios name with
  | Some (n, d) when d > 0.0 -> n /. d
  | _ -> 0.0

let samples t name =
  match Hashtbl.find_opt t.samples name with
  | Some s -> s
  | None ->
    let s = Metrics.samples () in
    Hashtbl.replace t.samples name s;
    s

let fail t msg =
  t.failed <- t.failed + 1;
  if List.length t.errors < 20 then t.errors <- msg :: t.errors

let merge ~into t =
  Hashtbl.iter
    (fun name (n, d) -> ratio into name n d)
    t.ratios;
  Hashtbl.iter (fun name s -> Metrics.append ~into:(samples into name) s) t.samples;
  into.setups <- into.setups @ t.setups;
  into.attempted <- into.attempted + t.attempted;
  into.failed <- into.failed + t.failed;
  into.errors <- into.errors @ t.errors

let setup_s t = Metrics.median_float t.setups
