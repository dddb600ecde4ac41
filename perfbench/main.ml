(* The repository benchmark.

     main.exe --workload <xshard-txn|serve-open|replica-paged>
              --seed <n> --seconds <s> --trace <0|1>

   Runs the workload in legs (each: build the stack, warm up, measure a
   steady window, drain), checks the outputs, prints every metric by name
   with its unit and sample count, and ends with one JSON line:
   {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the JSON
   metrics are the end-to-end set; with --trace 1 the per-layer set,
   which adds one traced leg (lib/trace on, the benchmark's own spans
   recorded) whose simulated end-to-end figures must equal those of the
   same leg untraced.  Exits 1 if any output check fails.

   Times in "cyc" are simulated cycles of the 3.4 GHz model; times in
   "s" and "ns" are host CPU time of this process, and setup_s is
   further normalized by a host calibration (see Common.calibrate).
   Simulated figures repeat bit for bit for a fixed seed and --seconds. *)

module Trace = Dudetm_trace.Trace

type workload = {
  name : string;
  legs : int -> int;  (** legs measured for a --seconds budget *)
  trace_leg : int;  (** which leg the traced run repeats *)
  run_leg : seed:int -> leg:int -> traced:bool -> Acc.t -> Spans.t;
  finish : (int * Acc.t) list -> Acc.t;  (** legs -> the workload's figures *)
}

let merge_all legs =
  let total = Acc.create () in
  List.iter (fun (_, a) -> Acc.merge ~into:total a) legs;
  total

let workloads =
  [
    {
      name = "xshard-txn";
      legs = (fun s -> max 2 (s / 2));
      trace_leg = 0;
      run_leg = (fun ~seed ~leg:_ ~traced acc -> Xshard.run_leg ~seed ~traced acc);
      finish = merge_all;
    };
    {
      name = "serve-open";
      legs = Serve_open.legs;
      trace_leg = Serve_open.target;
      run_leg = Serve_open.run_leg;
      finish = Serve_open.finish;
    };
    {
      name = "replica-paged";
      legs = (fun s -> max 2 (s / 4));
      trace_leg = 0;
      run_leg = (fun ~seed ~leg:_ ~traced acc -> Replica_paged.run_leg ~seed ~traced acc);
      finish = merge_all;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)
(* ------------------------------------------------------------------ *)

type metric = {
  m_name : string;
  m_unit : string;
  value : Acc.t -> float;
  n : Acc.t -> int;  (** samples behind the value *)
}

let ratio ?(unit = "1/op") name =
  { m_name = name; m_unit = unit; value = (fun a -> Acc.value a name); n = (fun _ -> 1) }

let pct ?(unit = "cyc") name set p =
  {
    m_name = name;
    m_unit = unit;
    value = (fun a -> float_of_int (Metrics.percentile (Metrics.sorted (Acc.samples a set)) p));
    n = (fun a -> Metrics.count (Acc.samples a set));
  }

let setup_s =
  {
    m_name = "setup_s";
    m_unit = "s";
    value = Acc.setup_s;
    n = (fun a -> List.length a.Acc.setups);
  }

let peak_heap =
  {
    m_name = "host_peak_heap_mb";
    m_unit = "MB";
    value =
      (fun _ ->
        float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6);
    n = (fun _ -> 1);
  }

let end_to_end =
  [
    setup_s;
    ratio ~unit:"Mops/s" "tput_mops";
    pct "ack_p50_cyc" "ack" 50.0;
    pct "ack_p99_cyc" "ack" 99.0;
    ratio ~unit:"B/op" "nvm_bytes_per_op";
    ratio ~unit:"words/op" "host_alloc_words_per_op";
    peak_heap;
  ]

(* Printed, not in the JSON end-to-end set: the raw set-up time and the
   calibration it is normalized by (means over legs), the end-to-end
   figures only serve-open has, and its per-rate figures. *)
let workload_only =
  [
    ratio ~unit:"s" "setup_cpu_s";
    ratio ~unit:"s" "host_calib_s";
    pct "read_p50_cyc" "read" 50.0;
    pct "read_p99_cyc" "read" 99.0;
    ratio ~unit:"Mops/s" "slo_rate_mops";
  ]
  @ List.concat
      (List.mapi
         (fun i rate ->
           let at = Printf.sprintf "@%g" rate in
           [
             ratio ~unit:("cyc" ^ at) (Printf.sprintf "serve.ack_p99_cyc.r%d" i);
             ratio ~unit:("count" ^ at) (Printf.sprintf "serve.failed.r%d" i);
           ])
         Serve_open.rates)

let per_layer =
  [
    ratio ~unit:"ns/op" "sim.host_ns_per_op";
    ratio ~unit:"ratio" "sim.host_ns_per_op.drift";
    ratio "nvm.persist_ops_per_op";
    ratio ~unit:"frac" "nvm.channel_busy_frac";
    ratio ~unit:"B/op" "nvm.bytes_per_op.log";
    ratio ~unit:"B/op" "nvm.bytes_per_op.home";
    ratio ~unit:"ratio" "tm.aborts_per_commit";
    ratio ~unit:"cyc/op" "tm.backoff_cyc_per_op";
    ratio ~unit:"1/read" "snapshot.retries_per_read";
    ratio "log.entries_per_op";
    ratio ~unit:"ratio" "log.combine_ratio";
    ratio ~unit:"txs" "log.record_txs_mean";
    ratio ~unit:"frac" "log.plog_hwm_frac";
    pct "core.perform_cyc_p50" "core.perform" 50.0;
    pct "core.perform_cyc_p99" "core.perform" 99.0;
    pct "core.persist_wait_cyc_p50" "core.persist_wait" 50.0;
    pct "core.persist_wait_cyc_p99" "core.persist_wait" 99.0;
    ratio ~unit:"cyc/op" "core.bp_throttle_cyc_per_op";
    ratio ~unit:"cyc/op" "core.pace_cyc_per_op";
    ratio ~unit:"frac" "core.batch_deadline_flush_frac";
    pct ~unit:"txs" "core.reproduce_lag_txs_p99" "core.reproduce_lag" 99.0;
    ratio ~unit:"cyc" "core.drain_cyc";
    ratio "shadow.faults_per_op";
    ratio "shadow.evictions_per_op";
    ratio "shadow.swapin_waits_per_op";
    pct "shard.cross_commit_cyc_p99" "shard.cross_commit" 99.0;
    pct "shard.frontier_wait_cyc_p99" "shard.frontier_wait" 99.0;
    ratio ~unit:"ratio" "shard.load_imbalance";
    pct "replica.quorum_wait_cyc_p50" "replica.quorum_wait" 50.0;
    pct "replica.quorum_wait_cyc_p99" "replica.quorum_wait" 99.0;
    ratio ~unit:"1/batch" "replica.retransmits_per_batch";
    ratio ~unit:"B/op" "replica.link_bytes_per_op";
    pct "serve.gen_lag_cyc_p99" "serve.gen_lag" 99.0;
    pct "serve.queue_cyc_p99" "serve.queue" 99.0;
    pct "serve.ack_hold_cyc_p99" "serve.ack_hold" 99.0;
    ratio ~unit:"frac" "serve.shed_frac";
    ratio ~unit:"count" "serve.gate_trips";
    ratio ~unit:"count" "serve.depth_hwm";
    pct "serve.read_p50_cyc" "read" 50.0;
    pct "serve.read_p99_cyc" "read" 99.0;
    { (ratio ~unit:"Mops/s" "slo_rate_mops") with m_name = "serve.slo_rate_mops" };
  ]
  @ List.mapi
      (fun i _ -> ratio ~unit:"cyc" (Printf.sprintf "serve.ack_p99_cyc.r%d" i))
      Serve_open.rates
  @ [ ratio ~unit:"ratio" "trace.host_overhead" ]

(* ------------------------------------------------------------------ *)
(* Output                                                               *)
(* ------------------------------------------------------------------ *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let print_table title acc metrics =
  Printf.printf "%s\n" title;
  List.iter
    (fun m ->
      Printf.printf "  %-32s %18s %-8s n=%d\n" m.m_name
        (json_number (m.value acc))
        m.m_unit (m.n acc))
    metrics

(* The reporting rule: median plus the highest percentile with at least
   ten samples beyond it, with the sample count. *)
let print_tails acc =
  Printf.printf "latency tails (median; highest percentile with >= %d samples beyond)\n"
    Metrics.min_beyond;
  Hashtbl.fold (fun k s l -> (k, s) :: l) acc.Acc.samples []
  |> List.sort compare
  |> List.iter (fun (k, s) ->
         let sm = Metrics.summarize s in
         Printf.printf "  %-28s p50 %8d  %-6s %8d  n=%d\n" k sm.Metrics.p50
           (Metrics.pp_pct sm.Metrics.tail_p)
           sm.Metrics.tail sm.Metrics.n)

let print_spans sp =
  Printf.printf "traced leg: self time per layer call (benchmark spans, simulated cycles)\n";
  List.iter
    (fun l ->
      Printf.printf "  %-24s spans %7d  total %12d  self %12d\n" l.Spans.l_name
        l.Spans.l_spans l.Spans.l_total l.Spans.l_self)
    (Spans.self_times sp)

let print_trace () =
  Printf.printf "traced leg: lib/trace phases in the window (cycles)\n";
  List.iter
    (fun p ->
      if p.Trace.ph_count > 0 then
        Printf.printf "  %-28s count %8d  total %12d  p99 %8d\n"
          (p.Trace.ph_cat ^ "." ^ p.Trace.ph_name)
          p.Trace.ph_count p.Trace.ph_total p.Trace.ph_p99)
    (Trace.phases ());
  Printf.printf "traced leg: NVM devices and replication links in the window\n";
  List.iter
    (fun d ->
      Printf.printf "  %-28s bytes %12d  persists %8d\n" ("nvm:" ^ d.Trace.nd_dev)
        d.Trace.nd_bytes d.Trace.nd_ops)
    (Trace.nvm_dev_accts ());
  List.iter
    (fun l ->
      Printf.printf "  %-28s bytes %12d  frames %10d\n" ("link:" ^ l.Trace.lk_link)
        l.Trace.lk_bytes l.Trace.lk_frames)
    (Trace.link_accts ())

(* Simulated end-to-end figures a traced leg must reproduce exactly. *)
let simulated =
  [ "tput_mops"; "ack_p50_cyc"; "ack_p99_cyc"; "nvm_bytes_per_op"; "read_p50_cyc"; "read_p99_cyc" ]

let compare_traced acc ~untraced ~traced =
  List.iter
    (fun name ->
      let m = List.find (fun m -> m.m_name = name) (end_to_end @ workload_only) in
      let a = m.value untraced and b = m.value traced in
      if a <> b then
        Acc.fail acc
          (Printf.sprintf "traced leg changed %s: %s untraced, %s traced" name
             (json_number a) (json_number b)))
    simulated;
  List.iter (fun e -> Acc.fail acc ("traced leg: " ^ e)) traced.Acc.errors

(* ------------------------------------------------------------------ *)
(* Entry point                                                          *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: main.exe --workload <xshard-txn|serve-open|replica-paged> --seed N --seconds S \
     --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let rec parse = function
    | "--workload" :: v :: r -> workload := v; parse r
    | "--seed" :: v :: r -> seed := int_of_string v; parse r
    | "--seconds" :: v :: r -> seconds := int_of_string v; parse r
    | "--trace" :: v :: r -> trace := int_of_string v; parse r
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None -> usage ()
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then usage ();
  let nlegs = w.legs !seconds in
  let legs =
    List.init nlegs (fun leg ->
        let acc = Acc.create () in
        ignore (w.run_leg ~seed:(Common.leg_seed !seed leg) ~leg ~traced:false acc);
        (leg, acc))
  in
  let total = w.finish legs in
  Printf.printf "workload %s  seed %d  legs %d\n" w.name !seed nlegs;
  print_table "end-to-end" total end_to_end;
  print_table "also printed (not in the JSON)" total workload_only;
  Printf.printf "  %-32s %18s %-8s attempted=%d\n" "failed_frac"
    (json_number (float_of_int total.Acc.failed /. float_of_int (max 1 total.Acc.attempted)))
    "frac" total.Acc.attempted;
  print_tails total;
  if !trace = 1 then begin
    let leg = w.trace_leg in
    let traced = Acc.create () in
    Trace.enable ~capacity:(1 lsl 16) ();
    let sp = w.run_leg ~seed:(Common.leg_seed !seed leg) ~leg ~traced:true traced in
    print_trace ();
    Trace.disable ();
    Trace.reset ();
    let untraced = List.assoc leg legs in
    compare_traced total ~untraced ~traced;
    Acc.ratio total "trace.host_overhead" (Acc.value traced "sim.host_ns_per_op")
      (Acc.value untraced "sim.host_ns_per_op");
    List.iter
      (fun k -> Acc.ratio total k (Acc.value traced k) 1.0)
      [ "nvm.channel_busy_frac"; "nvm.bytes_per_op.log"; "nvm.bytes_per_op.home" ];
    print_spans sp;
    let self = List.fold_left (fun a l -> a + l.Spans.l_self) 0 (Spans.self_times sp) in
    if self <> Spans.roots_total sp then
      Acc.fail total
        (Printf.sprintf "span self times sum to %d, request spans to %d" self
           (Spans.roots_total sp));
    print_table "per-layer" total per_layer
  end;
  let correct = total.Acc.errors = [] in
  List.iter (fun e -> Printf.printf "CHECK FAILED: %s\n" e) total.Acc.errors;
  let metrics = if !trace = 1 then per_layer else end_to_end in
  let body =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name
          (json_number (m.value total)) m.m_unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct total.Acc.attempted total.Acc.failed (String.concat ", " body);
  exit (if correct then 0 else 1)
