(* Workload serve-open: open-loop Poisson arrivals through lib/serve.

   Serve runs over 8 shards with 4 tenants x 16 sessions; each tenant
   draws Zipf(0.99) keys from its own range and half of all requests are
   snapshot reads.  Every request is single-key, so nothing takes the
   cross-shard path.  This is the one workload through admission, DRR
   dispatch, the watermark acker and [atomically_ro].

   The generator drives [make_desc]/[submit]/[await] itself instead of
   [Serve.run_open]: each request is timed from the moment it was due,
   not from its submit, so when a session's descriptor window is full
   the wait counts against the requests behind it (no coordinated
   omission), and the generator's lateness is reported on its own.

   The offered rates and the write-ack p99 limit are fixed absolute
   numbers, chosen once: a rate expressed as a fraction of a capacity
   calibrated on every run would move whenever capacity moves, hiding
   the change. *)

open Common
module Rng = Dudetm_sim.Rng
module Config = Dudetm_core.Config
module Tenant_mix = Dudetm_workloads.Tenant_mix
module Serve = Dudetm_serve.Serve
module Srv = Serve.Make (Dudetm_tm.Tinystm)
module Sh = Srv.Sh
module E = Srv.Engine

(* Offered rates (Mops/s, simulated) and the write-ack p99 limit (cyc)
   slo_rate_mops is judged against.  Index [target] is the rate the
   end-to-end figures are reported at. *)
let rates = [ 40.0; 63.0; 70.0; 77.0 ]

let target = 1

let slo_limit_cyc = 5_500

let nshards = 8

let ntenants = 4

let sessions = 16

let keys_per_tenant = 1024

let scfg = Serve.default_config

let warm = 300_000

(* The target rate's window is twice as long: its figures are the
   workload's end-to-end ones. *)
let window_of ri = if ri = target then 2_400_000 else 1_200_000

(* Arrivals keep coming this long past the window, so the window's last
   requests meet a loaded system. *)
let tail = 200_000

let legs seconds = List.length rates * max 1 (seconds / 12)

let cfg seed =
  {
    Config.default with
    Config.heap_size = 1 lsl 18;
    root_size = 4096;
    nthreads = scfg.Serve.workers_per_shard;
    vlog_capacity = 1 lsl 10;
    plog_size = 1 lsl 14;
    meta_size = 1 lsl 13;
    combine = true;
    group_size = 4;
    batch_min_entries = 2;
    batch_max_entries = 16;
    batch_deadline = 512;
    seed;
  }

(* Keys are globally unique small ints, one heap word each. *)
let slot key = 64 + (8 * Int64.to_int key)

type inflight = {
  d : Srv.desc;
  req : int;
  due : int;
  t_sub : int;  (* the session's clock at submit *)
  g_sub : int;  (* the global clock at submit, as Serve stamps it *)
  counted : bool;  (* due inside the window *)
}

let run_leg ~seed ~leg ~traced acc =
  let ri = leg mod List.length rates in
  let rate = List.nth rates ri and window = window_of ri in
  let h = host () in
  let cfg = cfg seed in
  let mix =
    Tenant_mix.create ~theta:0.99 ~ro_permille:500 ~ntenants ~keys_per_tenant ~nshards ()
  in
  (* Writes carry their request id as payload; the app callback stamps
     when the dispatcher executes it. *)
  let max_reqs = 1 lsl 20 in
  let exec = Array.make max_reqs 0 in
  let app =
    {
      Srv.shard_of = Tenant_mix.shard_of mix;
      write =
        (fun tx ~shard ~key ~payload ->
          exec.(Int64.to_int payload) <- Sched.now ();
          Sh.write tx ~shard (slot key) payload);
      read = (fun tx ~shard ~key -> Sh.read tx ~shard (slot key));
    }
  in
  let sh = Sh.create ~nshards cfg in
  let srv = Srv.create ~scfg ~app ~ntenants sh in
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
  let nkeys = ntenants * keys_per_tenant in
  (* Per key: (tid, payload) of the latest acknowledged write. *)
  let last = Array.make nkeys (0, 0L) in
  let next_req = ref 0 in
  let submitted = ref 0 and shed = ref 0 and replied = ref 0 and aborted = ref 0 in
  (* Replies taken back so far, for per-op host and trace figures over
     the window. *)
  let done_w = ref 0 and done_r = ref 0 in
  let win_writes = ref 0 and win_reads = ref 0 and win_shed = ref 0 and win_sub = ref 0 in
  let ack_lat = timed () and read_lat = timed () and gen_lag = timed () in
  let queue = timed () and ack_hold = timed () in
  let w1 = warm + window in
  let in_window = Metrics.in_window { Metrics.t0 = warm; t1 = w1 } in
  let gens_done = ref 0 in
  let nsessions = ntenants * sessions in
  (* Per-session mean inter-arrival gap for the total offered rate. *)
  let mean_gap = float_of_int nsessions *. Cycles.per_second /. (rate *. 1e6) in
  let session tenant sid =
    let rng = Rng.create (seed + (tenant * 131) + (sid * 7_919)) in
    let free = Queue.create () in
    for _ = 1 to scfg.Serve.slots_per_session do
      Queue.push (Srv.make_desc ~tenant ~session:sid (Serve.Read { key = 0L })) free
    done;
    let inflight = Queue.create () in
    let awaiter () =
      while true do
        Sched.wait_until ~label:"bench inflight" (fun () -> not (Queue.is_empty inflight));
        let f = Queue.peek inflight in
        let rep = Srv.await f.d in
        let t_reply = f.g_sub + Srv.latency f.d in
        (match rep with
        | Serve.R_executed { shard; tid } ->
          (* The acked-prefix invariant, checked as the session takes the
             reply back. *)
          let eff = Sh.effective_durable sh shard in
          if tid > eff then
            Acc.fail acc
              (Printf.sprintf "serve-open: write tid %d on shard %d replied above the \
                               effective durable id %d" tid shard eff);
          (match Srv.op_of f.d with
          | Serve.Write { key; payload } ->
            let k = Int64.to_int key in
            if tid > fst last.(k) then last.(k) <- (tid, payload)
          | Serve.Read _ -> ());
          incr done_w;
          if f.counted then begin
            incr win_writes;
            note ack_lat ~start:f.due (t_reply - f.due);
            note queue ~start:f.due (exec.(f.req) - f.t_sub);
            note ack_hold ~start:f.due (t_reply - exec.(f.req))
          end;
          let root = Spans.interval sp ~req:f.req ~start:f.due ~stop:t_reply "request" in
          ignore (Spans.interval sp ~parent:root ~req:f.req ~start:f.due ~stop:f.t_sub "bench.gen_lag");
          ignore
            (Spans.interval sp ~parent:root ~req:f.req ~start:f.t_sub ~stop:exec.(f.req)
               "serve.queue");
          ignore
            (Spans.interval sp ~parent:root ~req:f.req ~start:exec.(f.req) ~stop:t_reply
               "serve.execute_ack")
        | Serve.R_value _ ->
          incr done_r;
          if f.counted then begin
            incr win_reads;
            note read_lat ~start:f.due (t_reply - f.due)
          end;
          let root = Spans.interval sp ~req:f.req ~start:f.due ~stop:t_reply "request" in
          ignore (Spans.interval sp ~parent:root ~req:f.req ~start:f.due ~stop:f.t_sub "bench.gen_lag");
          ignore
            (Spans.interval sp ~parent:root ~req:f.req ~start:f.t_sub ~stop:t_reply
               "serve.read")
        | Serve.R_aborted -> incr aborted
        | Serve.R_overloaded | Serve.R_pending ->
          Acc.fail acc "serve-open: accepted request came back without a result");
        ignore (Queue.pop inflight);
        Queue.push f.d free;
        incr replied
      done
    in
    ignore (Sched.spawn ~daemon:true (Printf.sprintf "bench-await-%d-%d" tenant sid) awaiter);
    let due = ref 0 in
    let continue = ref true in
    while !continue do
      let u = Rng.float rng in
      due := !due + max 1 (int_of_float (-.log (1.0 -. u) *. mean_gap));
      if !due >= w1 + tail then continue := false
      else begin
        let now = Sched.now () in
        if !due > now then Sched.advance (!due - now);
        if Queue.is_empty free then
          Sched.wait_until ~label:"bench window" (fun () -> not (Queue.is_empty free));
        let counted = in_window !due in
        if counted then note gen_lag ~start:!due (Sched.now () - !due);
        let d = Queue.pop free in
        let key = Tenant_mix.sample_key mix ~tenant rng in
        incr next_req;
        let req = !next_req in
        let op =
          if Tenant_mix.is_read mix ~tenant rng then Serve.Read { key }
          else Serve.Write { key; payload = Int64.of_int req }
        in
        Srv.set_op d op;
        let t_sub = Sched.now () and g_sub = Sched.global_now () in
        incr submitted;
        if counted then incr win_sub;
        if Srv.submit srv d then Queue.push { d; req; due = !due; t_sub; g_sub; counted } inflight
        else begin
          incr shed;
          if counted then incr win_shed;
          (* A refused write misses every latency limit. *)
          if counted then note ack_lat ~start:!due max_int;
          Queue.push d free
        end
      end
    done;
    incr gens_done
  in
  let before = ref (Hashtbl.create 1) and after = ref (Hashtbl.create 1) in
  let trips0 = ref 0 and done0 = ref 0 and done1 = ref 0 and w_done0 = ref 0 in
  let drain_cyc = ref 0 in
  let w = ref { Metrics.t0 = 0; t1 = 0 } in
  ignore
    (Sched.run (fun () ->
         Srv.start srv;
         for tenant = 0 to ntenants - 1 do
           for sid = 0 to sessions - 1 do
             ignore
               (Sched.spawn (Printf.sprintf "bench-session-%d-%d" tenant sid) (fun () ->
                    session tenant sid))
           done
         done;
         w :=
           run_window ~warm ~window
             ~at_t0:(fun () ->
               if traced then Trace.reset ();
               before := snapshot layers;
               trips0 := Dudetm_serve.Admission.trips (Srv.gate srv);
               done0 := !done_w + !done_r;
               w_done0 := !done_w;
               mark_t0 h)
             ~at_mid:(fun () -> mark_mid h ~ops:(!done_w + !done_r - !done0))
             ~at_t1:(fun () ->
               mark_t1 h;
               done1 := !done_w + !done_r;
               after := snapshot layers;
               Acc.ratio acc "serve.gate_trips"
                 (float_of_int (Dudetm_serve.Admission.trips (Srv.gate srv) - !trips0))
                 1.0;
               if traced then
                 record_trace acc ~window_cyc:window ~gbps:cfg.Config.pmem.Dudetm_nvm.Pmem_config.bandwidth_gbps
                   ~writes:(!done_w - !w_done0));
         Sched.wait_until ~label:"bench generators" (fun () -> !gens_done = nsessions);
         let t_stop = Sched.now () in
         Sched.wait_until ~label:"bench replies" (fun () -> !replied = !submitted - !shed);
         Srv.stop srv;
         drain_cyc := Sched.now () - t_stop));
  let w = !w in
  let ops = !win_writes + !win_reads in
  (* Output checks: every request accounted for, and every key holds the
     payload of its highest-tid acknowledged write. *)
  let st = Srv.stats srv in
  if Stats.get st "submitted" <> !replied + !shed then
    Acc.fail acc
      (Printf.sprintf "serve-open: submitted %d <> done %d + shed %d" (Stats.get st "submitted")
         (!replied - !aborted) !shed);
  Array.iteri
    (fun k (tid, payload) ->
      if tid > 0 then begin
        let key = Int64.of_int k in
        let s = Tenant_mix.shard_of mix key in
        let v = E.heap_read_u64 (Sh.engine sh s) (slot key) in
        if v <> payload then
          Acc.fail acc
            (Printf.sprintf "serve-open: key %d reads %Ld, last acked write %Ld" k v payload)
      end)
    last;
  acc.Acc.attempted <- acc.Acc.attempted + !submitted;
  acc.Acc.failed <- acc.Acc.failed + !shed + !aborted;
  record_host acc h ~ops:(!done1 - !done0);
  record_window acc ~before:!before ~after:!after ~ops ~writes:!win_writes ~reads:!win_reads;
  Acc.ratio acc "tput_mops" (float_of_int ops) (Cycles.to_seconds (w.t1 - w.t0) *. 1e6);
  Acc.ratio acc "serve.shed_frac" (float_of_int !win_shed) (float_of_int !win_sub);
  Acc.ratio acc "serve.depth_hwm" (float_of_int (Srv.depth_hwm srv)) 1.0;
  Acc.ratio acc "core.drain_cyc" (float_of_int !drain_cyc) 1.0;
  let plog_hwm =
    List.fold_left (fun m e -> max m (Stats.get (E.stats e) "plog_hwm_bytes")) 0 engines
  in
  Acc.ratio acc "log.plog_hwm_frac" (float_of_int plog_hwm) (float_of_int cfg.Config.plog_size);
  flush_timed acc "ack" w ack_lat;
  flush_timed acc "read" w read_lat;
  flush_timed acc "serve.gen_lag" w gen_lag;
  flush_timed acc "serve.queue" w queue;
  flush_timed acc "serve.ack_hold" w ack_hold;
  sp

(* Per-rate figures, the SLO rate, and the target rate's figures as the
   workload's end-to-end ones. *)
let finish legs =
  let per_rate = Array.init (List.length rates) (fun _ -> Acc.create ()) in
  List.iter
    (fun (leg, a) -> Acc.merge ~into:per_rate.(leg mod List.length rates) a)
    legs;
  let total = Acc.create () in
  Acc.merge ~into:total per_rate.(target);
  Array.iteri
    (fun i a ->
      if i <> target then begin
        total.Acc.setups <- total.Acc.setups @ a.Acc.setups;
        total.Acc.attempted <- total.Acc.attempted + a.Acc.attempted;
        total.Acc.failed <- total.Acc.failed + a.Acc.failed;
        total.Acc.errors <- total.Acc.errors @ a.Acc.errors
      end)
    per_rate;
  let p99 i =
    let s = Metrics.sorted (Acc.samples per_rate.(i) "ack") in
    Metrics.percentile s 99.0
  in
  List.iteri
    (fun i _ ->
      Acc.ratio total (Printf.sprintf "serve.ack_p99_cyc.r%d" i) (float_of_int (p99 i)) 1.0;
      Acc.ratio total (Printf.sprintf "serve.failed.r%d" i) (float_of_int per_rate.(i).Acc.failed) 1.0)
    rates;
  Acc.ratio total "slo_rate_mops" (Metrics.slo_rate ~limit:slo_limit_cyc (List.mapi (fun i r -> (r, p99 i)) rates)) 1.0;
  total
