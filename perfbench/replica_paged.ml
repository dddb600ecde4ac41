(* Workload replica-paged: closed loop on commit through lib/replica over
   a paged shadow.

   One engine with combine on is the primary of a K=3 cluster (quorum 2
   of 4).  Its 8 MiB heap is mirrored by a shadow of 512 4-KiB frames, a
   quarter of the heap, and [records] records spread over most of it are
   written at set-up.  4 clients run Zipf(0.99) two-word updates; an ack
   fiber waits in [Engine.wait_durable] and then [Rep.wait_acked] for each
   committed transaction, so clients never wait for durability.

   This is the one workload whose data is larger than the program's own
   cache (the shadow DRAM), so it is the one that exercises swap-in
   gated on Reproduce, and the one that ships batches to a quorum.  Its
   set-up (population) is heavy, so set-up time moves here. *)

open Common
module Rng = Dudetm_sim.Rng
module Config = Dudetm_core.Config
module Zipf = Dudetm_workloads.Zipf
module Rep = Dudetm_replica.Replica.Make (Dudetm_tm.Tinystm)
module E = Rep.Engine

let nreplicas = 3

let clients = 4

let heap = 8 lsl 20

let frames = 512

let records = 100_000

(* Records per population transaction. *)
let populate_batch = 32

let think = 200

let warm = 1_500_000

let window = 6_000_000

(* Record [r]: one 64-byte line, its two words updated together. *)
let record_off r = 64 + (64 * r)

(* Spread Zipf ranks over the heap so hot records do not share pages:
   7919 is prime and does not divide [records], so this is a bijection. *)
let record_of_rank rank = rank * 7_919 mod records

let cfg seed =
  {
    Config.default with
    Config.heap_size = heap;
    nthreads = clients;
    shadow_frames = Some frames;
    shadow_mode = Dudetm_shadow.Shadow.Software;
    vlog_capacity = 1 lsl 14;
    plog_size = 1 lsl 20;
    group_size = 8;
    combine = true;
    seed;
  }

type pending = { tid : int; req : int; t_begin : int; t_commit : int; counted : bool }

let zipf = lazy (Zipf.create ~n:records ~theta:0.99)

let run_leg ~seed ~traced acc =
  let h = host () in
  let zipf = Lazy.force zipf in
  let cfg = cfg seed in
  let c = Rep.create ~rcfg:(Rep.default_config ~nreplicas ()) cfg in
  let prim = Rep.primary c in
  let all = prim :: List.init nreplicas (Rep.replica c) in
  let layers =
    {
      engines = [ E.stats prim ];
      tms = [ Dudetm_tm.Tinystm.stats (E.tm prim) ];
      nvms = List.map E.nvm all;
      shadows = Option.to_list (E.shadow_stats prim);
      links = List.concat_map (fun (d, u) -> [ d; u ]) (Array.to_list (Rep.link_stats c));
      replica = Some (Rep.stats c);
    }
  in
  let sp = Spans.create ~on:traced in
  let updates = Array.make records 0 in
  let begun = ref 0 and acked = ref 0 and aborted = ref 0 in
  let stop = ref false and clients_done = ref 0 in
  let window_open = ref false and window_pending = ref 0 in
  let ack_lat = timed () and perform = timed () and persist_wait = timed () in
  let quorum_wait = timed () and lag = timed () in
  (* Two ack stages, each a FIFO fiber.  The first only watches the
     primary's durable ID, to stamp local durability without a quorum
     wait in front of it; it registers no durability waiter, which would
     make the persist daemon flush every batch early and so change what
     is measured.  The second makes the public waits, [Engine.wait_durable]
     then [Rep.wait_acked]. *)
  let q = Queue.create () and q2 = Queue.create () in
  let pending = ref 0 in
  let local_acker () =
    while true do
      Sched.wait_until ~label:"bench ack" (fun () -> not (Queue.is_empty q));
      let p = Queue.pop q in
      Sched.wait_until ~label:"bench local durable" (fun () -> E.durable_id prim >= p.tid);
      note lag ~start:p.t_begin (E.durable_id prim - E.applied_id prim);
      Queue.push (p, Sched.now ()) q2
    done
  in
  let quorum_acker () =
    while true do
      Sched.wait_until ~label:"bench quorum ack" (fun () -> not (Queue.is_empty q2));
      let p, t_local = Queue.peek q2 in
      E.wait_durable prim p.tid;
      (match Rep.wait_acked c p.tid with
      | Rep.Quorum -> ()
      | Rep.Degraded_quorum d -> Acc.fail acc ("replica-paged: Degraded_quorum: " ^ d));
      let t_ack = Sched.now () in
      note persist_wait ~start:p.t_begin (t_local - p.t_commit);
      note quorum_wait ~start:p.t_begin (t_ack - t_local);
      note ack_lat ~start:p.t_begin (t_ack - p.t_begin);
      let root = Spans.interval sp ~req:p.req ~start:p.t_begin ~stop:t_ack "request" in
      ignore
        (Spans.interval sp ~parent:root ~req:p.req ~start:p.t_begin ~stop:p.t_commit
           "engine.atomically");
      ignore
        (Spans.interval sp ~parent:root ~req:p.req ~start:p.t_commit ~stop:t_local
           "engine.wait_durable");
      ignore
        (Spans.interval sp ~parent:root ~req:p.req ~start:t_local ~stop:t_ack
           "replica.wait_acked");
      ignore (Queue.pop q2);
      decr pending;
      incr acked;
      if p.counted then decr window_pending
    done
  in
  let client w () =
    let rng = Rng.create (seed + (w * 7_919)) in
    while not !stop do
      Sched.advance think;
      let r = record_of_rank (Zipf.sample zipf rng) in
      let off = record_off r in
      let t_begin = Sched.now () in
      incr begun;
      let req = !begun in
      let counted = !window_open in
      if counted then incr window_pending;
      let res =
        E.atomically prim ~thread:w (fun tx ->
            let a = E.read tx off and b = E.read tx (off + 8) in
            E.write tx off (Int64.add a 1L);
            E.write tx (off + 8) (Int64.sub b 1L))
      in
      let t_commit = Sched.now () in
      note perform ~start:t_begin (t_commit - t_begin);
      match res with
      | Some ((), tid) ->
        updates.(r) <- updates.(r) + 1;
        incr pending;
        Queue.push { tid; req; t_begin; t_commit; counted } q
      | None ->
        incr aborted;
        if counted then decr window_pending
    done;
    incr clients_done
  in
  (* Set-up: write both words of every record, [populate_batch] records
     per transaction, and wait until the cluster acks the last one. *)
  let populate () =
    let last = ref 0 in
    let r = ref 0 in
    while !r < records do
      let lo = !r and hi = min records (!r + populate_batch) in
      (match
         E.atomically prim ~thread:0 (fun tx ->
             for i = lo to hi - 1 do
               E.write tx (record_off i) (Int64.of_int i);
               E.write tx (record_off i + 8) (Int64.of_int (-i))
             done)
       with
      | Some ((), tid) -> last := tid
      | None -> Acc.fail acc "replica-paged: population transaction aborted");
      r := hi
    done;
    match Rep.wait_acked c !last with
    | Rep.Quorum -> ()
    | Rep.Degraded_quorum d -> Acc.fail acc ("replica-paged: population degraded: " ^ d)
  in
  let before = ref (Hashtbl.create 1) and after = ref (Hashtbl.create 1) in
  let acked0 = ref 0 and acked1 = ref 0 in
  let drain_cyc = ref 0 in
  let w = ref { Metrics.t0 = 0; t1 = 0 } in
  ignore
    (Sched.run (fun () ->
         Rep.start c;
         populate ();
         ignore (Sched.spawn ~daemon:true "bench-ack-local" local_acker);
         ignore (Sched.spawn ~daemon:true "bench-ack-quorum" quorum_acker);
         for i = 0 to clients - 1 do
           ignore (Sched.spawn (Printf.sprintf "bench-client-%d" i) (client i))
         done;
         w :=
           run_window ~warm ~window
             ~at_t0:(fun () ->
               if traced then Trace.reset ();
               window_open := true;
               before := snapshot layers;
               acked0 := !acked;
               mark_t0 h)
             ~at_mid:(fun () -> mark_mid h ~ops:(!acked - !acked0))
             ~at_t1:(fun () ->
               window_open := false;
               mark_t1 h;
               after := snapshot layers;
               acked1 := !acked;
               if traced then
                 record_trace acc ~window_cyc:window
                   ~gbps:cfg.Config.pmem.Dudetm_nvm.Pmem_config.bandwidth_gbps
                   ~writes:(!acked - !acked0));
         Sched.wait_until ~label:"bench window acked" (fun () -> !window_pending = 0);
         stop := true;
         let t_stop = Sched.now () in
         Sched.wait_until ~label:"bench clients" (fun () -> !clients_done = clients);
         (match Rep.drain c with
         | Rep.Quorum -> ()
         | Rep.Degraded_quorum d -> Acc.fail acc ("replica-paged: drain degraded: " ^ d));
         Sched.wait_until ~label:"bench acks" (fun () -> !pending = 0);
         drain_cyc := Sched.now () - t_stop;
         Rep.sync_followers c;
         (* Output check: after [sync_followers] every follower holds the
            primary's acked state in its NVM home locations. *)
         let target = Rep.acked c in
         if target < E.durable_id prim then
           Acc.fail acc
             (Printf.sprintf "replica-paged: acked %d below primary durable %d" target
                (E.durable_id prim));
         Array.iteri
           (fun r n ->
             if n > 0 then begin
               let want0 = Int64.of_int (r + n) and want1 = Int64.of_int (-r - n) in
               List.iteri
                 (fun i e ->
                   let nvm = E.nvm e in
                   let base = Config.heap_base cfg + record_off r in
                   let v0 = Nvm.persisted_u64 nvm base and v1 = Nvm.persisted_u64 nvm (base + 8) in
                   if v0 <> want0 || v1 <> want1 then
                     Acc.fail acc
                       (Printf.sprintf "replica-paged: record %d on %s reads (%Ld, %Ld), model (%Ld, %Ld)"
                          r (if i = 0 then "primary" else Printf.sprintf "replica %d" (i - 1))
                          v0 v1 want0 want1))
                 all
             end)
           updates;
         Rep.stop c));
  let w = !w in
  let ops = !acked1 - !acked0 in
  acc.Acc.attempted <- acc.Acc.attempted + !begun;
  acc.Acc.failed <- acc.Acc.failed + !aborted;
  record_host acc h ~ops;
  record_window acc ~before:!before ~after:!after ~ops ~writes:ops ~reads:0;
  Acc.ratio acc "tput_mops" (float_of_int ops) (Cycles.to_seconds (w.t1 - w.t0) *. 1e6);
  Acc.ratio acc "core.drain_cyc" (float_of_int !drain_cyc) 1.0;
  Acc.ratio acc "log.plog_hwm_frac"
    (float_of_int (Stats.get (E.stats prim) "plog_hwm_bytes"))
    (float_of_int cfg.Config.plog_size);
  flush_timed acc "ack" w ack_lat;
  flush_timed acc "core.perform" w perform;
  flush_timed acc "core.persist_wait" w persist_wait;
  flush_timed acc "replica.quorum_wait" w quorum_wait;
  flush_timed acc "core.reproduce_lag" w lag;
  sp
