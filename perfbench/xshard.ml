(* Workload xshard-txn: closed loop on commit over 8 shards.

   8 client fibers (one per Perform thread slot) draw uniform keys; 90%
   of transactions are single-key read-modify-writes, 10% two-key
   transfers between keys on different shards.  Clients never wait for
   durability: each committed transaction goes to an ack fiber that waits
   in [Sh.wait_durable] and stamps the durable ack.  Ack fibers are per
   shard (plus one for cross-shard acks) rather than per client: a
   client's consecutive transactions land on different shards, and a
   per-client FIFO would charge one shard's persist delay to the next
   transaction's ack.

   This is the one workload that saturates the persist pipelines on NVM
   bandwidth and takes the cross-shard path (global cross lock, fragment
   gate, global frontier).  No serve layer, snapshot reads, paging or
   replicas. *)

open Common
module Rng = Dudetm_sim.Rng
module Config = Dudetm_core.Config
module Partition = Dudetm_workloads.Partition
module Sh = Dudetm_shard.Shard.Make (Dudetm_tm.Tinystm)
module E = Sh.Engine

let nshards = 8

let clients = 8

let nkeys = 4096

let cross_pct = 10

let think = 50

(* Warm-up and window, simulated cycles. *)
let warm = 400_000

let window = 6_000_000

(* Each key's own word in its home shard's heap. *)
let slot k = 64 + (8 * k)

let cfg seed =
  {
    Config.default with
    Config.heap_size = 1 lsl 16;
    nthreads = clients;
    vlog_capacity = 128;
    plog_size = 1 lsl 13;
    meta_size = 8192;
    checkpoint_records = 2;
    seed;
    pmem =
      {
        Dudetm_nvm.Pmem_config.default with
        Dudetm_nvm.Pmem_config.bandwidth_gbps = 0.25;
        persist_latency = 500;
      };
  }

type pending = {
  req : int;
  root : int;  (* request span *)
  t_begin : int;
  t_commit : int;
  ack : Sh.ack;
  counted : bool;  (* begun inside the window *)
}

let run_leg ~seed ~traced acc =
  let h = host () in
  let part = Partition.hashed ~nshards in
  let home k = Partition.shard_of part (Int64.of_int k) in
  let cfg = cfg seed in
  let sh = Sh.create ~nshards cfg in
  let engines = List.init nshards (Sh.engine sh) in
  let layers =
    {
      engines = List.map E.stats engines;
      tms = List.map (fun e -> Dudetm_tm.Tinystm.stats (E.tm e)) engines;
      nvms = List.init nshards (Sh.nvm sh);
      shadows = [];
      links = [];
      replica = None;
    }
  in
  let sp = Spans.create ~on:traced in
  let model = Array.make nkeys 0L in
  let increments = ref 0 in
  let begun = ref 0 and acked = ref 0 and aborted = ref 0 in
  let stop = ref false and clients_done = ref 0 in
  let window_open = ref false and window_pending = ref 0 in
  let ack_lat = timed () and perform = timed () and cross_commit = timed () in
  let persist_wait = timed () and frontier_wait = timed () and lag = timed () in
  let local_q = Array.init nshards (fun _ -> Queue.create ()) in
  let cross_q = Queue.create () in
  let acker q () =
    while true do
      Sched.wait_until ~label:"bench ack" (fun () -> not (Queue.is_empty q));
      let p = Queue.peek q in
      (match p.ack with
      | Sh.Ack_local { shard; tid } ->
        let e = Sh.engine sh shard in
        Sched.wait_until ~label:"bench local durable" (fun () -> E.durable_id e >= tid);
        let t_local = Sched.now () in
        note lag ~start:p.t_begin (E.durable_id e - E.applied_id e);
        Sh.wait_durable sh p.ack;
        let t_ack = Sched.now () in
        note persist_wait ~start:p.t_begin (t_local - p.t_commit);
        note frontier_wait ~start:p.t_begin (t_ack - t_local);
        ignore
          (Spans.interval sp ~parent:p.root ~req:p.req ~start:p.t_commit ~stop:t_local
             "core.persist_wait");
        ignore
          (Spans.interval sp ~parent:p.root ~req:p.req ~start:t_local ~stop:t_ack
             "shard.wait_durable")
      | Sh.Ack_cross _ ->
        Sh.wait_durable sh p.ack;
        ignore
          (Spans.interval sp ~parent:p.root ~req:p.req ~start:p.t_commit
             ~stop:(Sched.now ()) "shard.wait_durable")
      | Sh.Ack_read_only -> ());
      let t_ack = Sched.now () in
      Spans.close sp p.root ~now:t_ack;
      note ack_lat ~start:p.t_begin (t_ack - p.t_begin);
      ignore (Queue.pop q);
      incr acked;
      if p.counted then decr window_pending
    done
  in
  let client w () =
    let rng = Rng.create (seed + (w * 7_919)) in
    while not !stop do
      Sched.advance think;
      let k = Rng.int rng nkeys in
      let s = home k in
      let cross = Rng.int rng 100 < cross_pct in
      let k2 =
        if not cross then k
        else
          (* The hash partition spreads keys, so this ends fast. *)
          let rec partner () =
            let k2 = Rng.int rng nkeys in
            if home k2 = s then partner () else k2
          in
          partner ()
      in
      let t_begin = Sched.now () in
      incr begun;
      let req = !begun in
      let counted = !window_open in
      if counted then incr window_pending;
      let root = Spans.open_ sp ~req ~now:t_begin "request" in
      let call = Spans.open_ sp ~parent:root ~req ~now:t_begin "shard.atomically" in
      let res =
        if cross then
          Sh.atomically sh ~thread:w ~shards:[ s; home k2 ] (fun tx ->
              let a = Sh.read tx ~shard:s (slot k) in
              let b = Sh.read tx ~shard:(home k2) (slot k2) in
              Sh.write tx ~shard:s (slot k) (Int64.sub a 1L);
              Sh.write tx ~shard:(home k2) (slot k2) (Int64.add b 1L))
        else
          Sh.atomically sh ~thread:w ~shards:[ s ] (fun tx ->
              let v = Sh.read tx ~shard:s (slot k) in
              Sh.write tx ~shard:s (slot k) (Int64.add v 1L))
      in
      let t_commit = Sched.now () in
      Spans.close sp call ~now:t_commit;
      note perform ~start:t_begin (t_commit - t_begin);
      if cross then note cross_commit ~start:t_begin (t_commit - t_begin);
      match res with
      | Some ((), ack) ->
        if cross then begin
          model.(k) <- Int64.sub model.(k) 1L;
          model.(k2) <- Int64.add model.(k2) 1L
        end
        else begin
          model.(k) <- Int64.add model.(k) 1L;
          incr increments
        end;
        let p = { req; root; t_begin; t_commit; ack; counted } in
        (match ack with
        | Sh.Ack_cross _ -> Queue.push p cross_q
        | Sh.Ack_local { shard; _ } -> Queue.push p local_q.(shard)
        | Sh.Ack_read_only -> Queue.push p local_q.(s))
      | None ->
        incr aborted;
        if counted then decr window_pending
    done;
    incr clients_done
  in
  let before = ref (Hashtbl.create 1) and after = ref (Hashtbl.create 1) in
  let acked0 = ref 0 and acked1 = ref 0 in
  let shard_txs () = List.map (fun e -> Stats.get (E.stats e) "txs") engines in
  let txs0 = ref [] and txs1 = ref [] in
  let drain_cyc = ref 0 in
  let w = ref { Metrics.t0 = 0; t1 = 0 } in
  ignore
    (Sched.run (fun () ->
         Sh.start sh;
         Array.iteri
           (fun i q -> ignore (Sched.spawn ~daemon:true (Printf.sprintf "bench-ack-%d" i) (acker q)))
           local_q;
         ignore (Sched.spawn ~daemon:true "bench-ack-cross" (acker cross_q));
         for c = 0 to clients - 1 do
           ignore (Sched.spawn (Printf.sprintf "bench-client-%d" c) (client c))
         done;
         w :=
           run_window ~warm ~window
             ~at_t0:(fun () ->
               if traced then Trace.reset ();
               window_open := true;
               before := snapshot layers;
               acked0 := !acked;
               txs0 := shard_txs ();
               mark_t0 h)
             ~at_mid:(fun () -> mark_mid h ~ops:(!acked - !acked0))
             ~at_t1:(fun () ->
               window_open := false;
               mark_t1 h;
               after := snapshot layers;
               acked1 := !acked;
               txs1 := shard_txs ();
               if traced then record_trace acc ~window_cyc:window
                   ~gbps:cfg.Config.pmem.Dudetm_nvm.Pmem_config.bandwidth_gbps
                   ~writes:(!acked - !acked0));
         (* Keep the load on until every transaction begun in the window
            is acked, so the window's tail is not measured on an
            emptying system; then stop the clients and time the drain. *)
         Sched.wait_until ~label:"bench window acked" (fun () -> !window_pending = 0);
         stop := true;
         let t_stop = Sched.now () in
         Sched.wait_until ~label:"bench clients" (fun () -> !clients_done = clients);
         Sh.drain sh;
         Sched.wait_until ~label:"bench acks" (fun () ->
             Queue.is_empty cross_q && Array.for_all Queue.is_empty local_q);
         drain_cyc := Sched.now () - t_stop;
         Sh.stop sh));
  let w = !w in
  let ops = !acked1 - !acked0 in
  (* Output checks: every key equals the committed model in the volatile
     view and in the reproduced NVM home, and transfers conserved the
     sum (it equals the number of committed increments). *)
  let sum = ref 0L in
  for k = 0 to nkeys - 1 do
    let s = home k in
    let v = E.heap_read_u64 (Sh.engine sh s) (slot k) in
    let nv = Nvm.persisted_u64 (Sh.nvm sh s) (Config.heap_base cfg + slot k) in
    sum := Int64.add !sum v;
    if v <> model.(k) || nv <> model.(k) then
      Acc.fail acc
        (Printf.sprintf "xshard-txn: key %d reads %Ld (NVM %Ld), model %Ld" k v nv model.(k))
  done;
  if !sum <> Int64.of_int !increments then
    Acc.fail acc
      (Printf.sprintf "xshard-txn: key sum %Ld, committed increments %d" !sum !increments);
  acc.Acc.attempted <- acc.Acc.attempted + !begun;
  acc.Acc.failed <- acc.Acc.failed + !aborted;
  record_host acc h ~ops;
  record_window acc ~before:!before ~after:!after ~ops ~writes:ops ~reads:0;
  Acc.ratio acc "tput_mops" (float_of_int ops) (Cycles.to_seconds (w.t1 - w.t0) *. 1e6);
  let d = List.map2 ( - ) !txs1 !txs0 in
  let mx = List.fold_left max 0 d and tot = List.fold_left ( + ) 0 d in
  Acc.ratio acc "shard.load_imbalance" (float_of_int (mx * nshards)) (float_of_int tot);
  Acc.ratio acc "core.drain_cyc" (float_of_int !drain_cyc) 1.0;
  let plog_hwm =
    List.fold_left (fun m e -> max m (Stats.get (E.stats e) "plog_hwm_bytes")) 0 engines
  in
  Acc.ratio acc "log.plog_hwm_frac" (float_of_int plog_hwm) (float_of_int cfg.Config.plog_size);
  flush_timed acc "ack" w ack_lat;
  flush_timed acc "core.perform" w perform;
  flush_timed acc "core.persist_wait" w persist_wait;
  flush_timed acc "shard.frontier_wait" w frontier_wait;
  flush_timed acc "shard.cross_commit" w cross_commit;
  flush_timed acc "core.reproduce_lag" w lag;
  sp
