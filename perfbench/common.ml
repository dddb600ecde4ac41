(* Pieces shared by the three workloads: seeds, host clocks, the
   measurement window, and counter snapshots of the public per-layer
   statistics. *)

module Sched = Dudetm_sim.Sched
module Stats = Dudetm_sim.Stats
module Cycles = Dudetm_sim.Cycles
module Nvm = Dudetm_nvm.Nvm
module Trace = Dudetm_trace.Trace

(* Leg [i] of a run seeded [seed].  Hashed rather than offset: workloads
   seed each client from the leg seed plus a per-client offset, and
   offsets would hand leg [i+1] the client streams of leg [i]. *)
let leg_seed seed i = 1 + Hashtbl.hash (seed, i)

(* Host time is the CPU time of this process.  The benchmark runs on one
   OS thread, so on an idle host this equals wall time; on a shared one it
   is far less disturbed by other tenants than the wall clock. *)
let host_now = Sys.time

(* OCaml words allocated so far by this process (minor + direct major,
   promotions counted once).  Deterministic for a fixed seed: nothing the
   benchmark does between two reads depends on host time. *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* The engine counters the per-layer metrics are built from. *)
let engine_keys =
  [
    "txs"; "log_entries"; "flush_records"; "combine_writes_in"; "combine_writes_out";
    "bp_throttle_cycles"; "pace_cycles"; "batch_deadline_flushes";
  ]

let tm_keys = [ "commits"; "aborts"; "backoff_cycles"; "snapshot_begins"; "snapshot_retries" ]

let shadow_keys = [ "faults"; "evictions"; "swapin_waits" ]

(* A snapshot of summed public counters, taken at each window edge. *)
type layers = {
  engines : Stats.t list;
  tms : Stats.t list;
  nvms : Nvm.t list;
  shadows : Stats.t list;
  links : Stats.t list;
  replica : Stats.t option;
}

let snapshot l =
  let sum stats k = List.fold_left (fun a s -> a +. float_of_int (Stats.get s k)) 0.0 stats in
  let tbl = Hashtbl.create 32 in
  List.iter (fun k -> Hashtbl.replace tbl ("e." ^ k) (sum l.engines k)) engine_keys;
  List.iter (fun k -> Hashtbl.replace tbl ("tm." ^ k) (sum l.tms k)) tm_keys;
  List.iter (fun k -> Hashtbl.replace tbl ("sh." ^ k) (sum l.shadows k)) shadow_keys;
  Hashtbl.replace tbl "nvm.ops"
    (List.fold_left (fun a n -> a +. float_of_int (Nvm.persist_ops n)) 0.0 l.nvms);
  Hashtbl.replace tbl "nvm.bytes"
    (List.fold_left (fun a n -> a +. float_of_int (Nvm.persisted_write_bytes n)) 0.0 l.nvms);
  Hashtbl.replace tbl "link.bytes" (sum l.links "bytes_sent");
  (match l.replica with
  | Some s ->
    Hashtbl.replace tbl "rep.retransmits" (float_of_int (Stats.get s "retransmits"));
    Hashtbl.replace tbl "rep.batches" (float_of_int (Stats.get s "batches_shipped"))
  | None -> ());
  tbl

(* Per-op window figures from two snapshots.  [ops] is the number of
   operations completed in the window, [writes] of acked writes. *)
let record_window acc ~before ~after ~ops ~writes ~reads =
  let d k =
    Option.value (Hashtbl.find_opt after k) ~default:0.0
    -. Option.value (Hashtbl.find_opt before k) ~default:0.0
  in
  let ops = float_of_int ops and writes = float_of_int writes in
  let r = Acc.ratio acc in
  r "nvm_bytes_per_op" (d "nvm.bytes") writes;
  r "nvm.persist_ops_per_op" (d "nvm.ops") ops;
  r "log.entries_per_op" (d "e.log_entries") writes;
  r "log.combine_ratio" (d "e.combine_writes_out") (d "e.combine_writes_in");
  r "log.record_txs_mean" (d "e.txs") (d "e.flush_records");
  r "core.bp_throttle_cyc_per_op" (d "e.bp_throttle_cycles") writes;
  r "core.pace_cyc_per_op" (d "e.pace_cycles") writes;
  r "core.batch_deadline_flush_frac" (d "e.batch_deadline_flushes") (d "e.flush_records");
  r "tm.aborts_per_commit" (d "tm.aborts") (d "tm.commits");
  r "tm.backoff_cyc_per_op" (d "tm.backoff_cycles") ops;
  r "snapshot.retries_per_read" (d "tm.snapshot_retries") (float_of_int reads);
  r "shadow.faults_per_op" (d "sh.faults") ops;
  r "shadow.evictions_per_op" (d "sh.evictions") ops;
  r "shadow.swapin_waits_per_op" (d "sh.swapin_waits") ops;
  r "replica.retransmits_per_batch" (d "rep.retransmits") (d "rep.batches");
  r "replica.link_bytes_per_op" (d "link.bytes") writes

(* A fixed task of plain OCaml work (allocation, hashing, touching
   memory), independent of the code under test, timed just before each
   leg to measure how fast the host is at that moment. *)
let calibrate () =
  let t0 = host_now () in
  let h = Hashtbl.create 4096 in
  let acc = ref 0 in
  for i = 0 to 120_000 do
    Hashtbl.replace h (i land 0xffff) (Array.make 4 i);
    acc := !acc + Array.length (Hashtbl.find h (i land 0xfff))
  done;
  let b = Bytes.make (4 lsl 20) 'x' in
  for i = 0 to (Bytes.length b / 64) - 1 do
    Bytes.set b (i * 64) 'y'
  done;
  ignore (Sys.opaque_identity (!acc, b));
  host_now () -. t0

(* [calibrate]'s time on the host the benchmark was defined on. *)
let calibration_ref_s = 0.05

(* Host-side marks at the window edges: wall time and allocation. *)
type host = {
  calib : float;
  mutable h_start : float;
  mutable h0 : float;
  mutable hmid : float;
  mutable h1 : float;
  mutable a0 : float;
  mutable a1 : float;
  mutable ops_mid : int;
}

(* Taken as a leg starts: calibrate, then compact the heap so neither the
   calibration's garbage nor the previous leg's is collected on this
   leg's time, and the peak heap does not depend on where the previous
   leg left the major GC. *)
let host () =
  let calib = calibrate () in
  Gc.compact ();
  { calib; h_start = host_now (); h0 = 0.0; hmid = 0.0; h1 = 0.0; a0 = 0.0; a1 = 0.0; ops_mid = 0 }

let mark_t0 h =
  h.h0 <- host_now ();
  h.a0 <- alloc_words ()

let mark_mid h ~ops =
  h.hmid <- host_now ();
  h.ops_mid <- ops

let mark_t1 h =
  h.a1 <- alloc_words ();
  h.h1 <- host_now ()

let record_host acc h ~ops =
  let opsf = float_of_int ops in
  let setup = h.h0 -. h.h_start in
  acc.Acc.setups <- acc.Acc.setups @ [ setup /. h.calib *. calibration_ref_s ];
  Acc.ratio acc "setup_cpu_s" setup 1.0;
  Acc.ratio acc "host_calib_s" h.calib 1.0;
  Acc.ratio acc "host_alloc_words_per_op" (h.a1 -. h.a0) opsf;
  Acc.ratio acc "sim.host_ns_per_op" ((h.h1 -. h.h0) *. 1e9) opsf;
  let first = (h.hmid -. h.h0) /. float_of_int (max 1 h.ops_mid) in
  let second = (h.h1 -. h.hmid) /. float_of_int (max 1 (ops - h.ops_mid)) in
  Acc.ratio acc "sim.host_ns_per_op.drift" second first

(* Window-edge controller, run on the leg's main fiber: sleeps through
   warm-up, then through the window in two halves. *)
let run_window ~warm ~window ~at_t0 ~at_mid ~at_t1 =
  Sched.advance warm;
  let t0 = Sched.now () in
  at_t0 ();
  Sched.advance (window / 2);
  at_mid ();
  Sched.advance (window - (window / 2));
  let t1 = Sched.now () in
  at_t1 ();
  { Metrics.t0; t1 }

(* Window-trimmed latency samples: (start, value) pairs recorded during
   the leg, kept when the start lies in the window. *)
type timed = { starts : Metrics.samples; values : Metrics.samples }

let timed () = { starts = Metrics.samples (); values = Metrics.samples () }

let note t ~start v =
  Metrics.add t.starts start;
  Metrics.add t.values v

let flush_timed acc name w t =
  Metrics.append ~into:(Acc.samples acc name) (Metrics.trim w ~starts:t.starts ~values:t.values)

(* Traced-run extras: the busiest NVM device's channel occupancy, bytes by the thread that
   issued them (log = Persist threads and follower ingest, home =
   Reproduce), read from lib/trace after a [Trace.reset] at t0. *)
let record_trace acc ~window_cyc ~gbps ~writes =
  let busiest =
    List.fold_left (fun m d -> max m d.Trace.nd_bytes) 0 (Trace.nvm_dev_accts ())
  in
  (* Channel occupancy is bytes over bandwidth: the device's cycle count
     in lib/trace is what callers waited, latency and queueing included,
     and overlaps across callers. *)
  Acc.ratio acc "nvm.channel_busy_frac"
    (float_of_int (Cycles.of_bytes_at_gbps gbps busiest))
    (float_of_int window_cyc);
  let starts p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p in
  let log, home =
    List.fold_left
      (fun (l, h) a ->
        let b = float_of_int a.Trace.nv_bytes in
        if starts "persist" a.Trace.nv_thread || starts "replica-net" a.Trace.nv_thread
        then (l +. b, h)
        else if starts "reproduce" a.Trace.nv_thread then (l, h +. b)
        else (l, h))
      (0.0, 0.0) (Trace.nvm_accts ())
  in
  Acc.ratio acc "nvm.bytes_per_op.log" log (float_of_int writes);
  Acc.ratio acc "nvm.bytes_per_op.home" home (float_of_int writes)
