(* Tests of the benchmark's own arithmetic: the percentile rule, window
   trimming, self time, the SLO-rate interpolation and leg merging. *)

let check = Alcotest.check

let samples_of l =
  let s = Metrics.samples () in
  List.iter (Metrics.add s) l;
  s

let test_percentile () =
  let a = Metrics.sorted (samples_of (List.init 100 (fun i -> 100 - i))) in
  check Alcotest.int "p50 of 1..100" 50 (Metrics.percentile a 50.0);
  check Alcotest.int "p99 of 1..100" 99 (Metrics.percentile a 99.0);
  check Alcotest.int "p100 is the max" 100 (Metrics.percentile a 100.0);
  check Alcotest.int "p0 is the min" 1 (Metrics.percentile a 0.0);
  check Alcotest.int "empty" 0 (Metrics.percentile [||] 99.0);
  check Alcotest.int "single sample" 7 (Metrics.percentile [| 7 |] 99.0)

let test_tail_rule () =
  let t n = Metrics.tail_percentile n in
  check (Alcotest.float 0.0) "1000 samples: p99 has 10 beyond" 99.0 (t 1000);
  check (Alcotest.float 0.0) "999 samples: p99 has fewer than 10" 90.0 (t 999);
  check (Alcotest.float 0.0) "10000 samples reach p99.9" 99.9 (t 10_000);
  check (Alcotest.float 0.0) "100000 samples reach p99.99" 99.99 (t 100_000);
  check (Alcotest.float 0.0) "100 samples: p90" 90.0 (t 100);
  check (Alcotest.float 0.0) "99 samples: only the median" 50.0 (t 99);
  let sm = Metrics.summarize (samples_of (List.init 1000 (fun i -> i + 1))) in
  check Alcotest.int "summary count" 1000 sm.Metrics.n;
  check Alcotest.int "summary median" 500 sm.Metrics.p50;
  check Alcotest.int "summary tail value" 990 sm.Metrics.tail

let test_trim () =
  let starts = samples_of [ 0; 4; 5; 10; 14; 15; 20 ] in
  let values = samples_of [ 1; 2; 3; 4; 5; 6; 7 ] in
  let w = { Metrics.t0 = 5; t1 = 15 } in
  let kept = Metrics.trim w ~starts ~values in
  check
    Alcotest.(list int)
    "start in [t0, t1): warm-up and drain dropped" [ 3; 4; 5 ]
    (Array.to_list (Array.sub kept.Metrics.data 0 (Metrics.count kept)));
  check Alcotest.bool "t1 itself is outside" false (Metrics.in_window w 15);
  check Alcotest.bool "t0 itself is inside" true (Metrics.in_window w 5)

let test_covered () =
  check Alcotest.int "disjoint" 30 (Spans.covered ~lo:0 ~hi:100 [ (10, 20); (50, 70) ]);
  check Alcotest.int "overlapping merge" 40 (Spans.covered ~lo:0 ~hi:100 [ (10, 30); (20, 50) ]);
  check Alcotest.int "clipped to the parent" 15
    (Spans.covered ~lo:0 ~hi:100 [ (-10, 5); (90, 120) ]);
  check Alcotest.int "nested" 40 (Spans.covered ~lo:0 ~hi:100 [ (10, 50); (20, 30) ]);
  check Alcotest.int "none" 0 (Spans.covered ~lo:0 ~hi:100 [])

let test_self_time () =
  let sp = Spans.create ~on:true in
  let root = Spans.interval sp ~req:1 ~start:0 ~stop:100 "request" in
  ignore (Spans.interval sp ~parent:root ~req:1 ~start:10 ~stop:30 "a");
  ignore (Spans.interval sp ~parent:root ~req:1 ~start:20 ~stop:50 "b");
  let c = Spans.interval sp ~parent:root ~req:1 ~start:60 ~stop:90 "c" in
  ignore (Spans.interval sp ~parent:c ~req:1 ~start:70 ~stop:80 "a");
  let self name =
    (List.find (fun l -> l.Spans.l_name = name) (Spans.self_times sp)).Spans.l_self
  in
  check Alcotest.int "root self: 100 - [10,50) - [60,90)" 30 (self "request");
  check Alcotest.int "c self excludes its child" 20 (self "c");
  check Alcotest.int "a summed over both spans" 30 (self "a");
  let off = Spans.create ~on:false in
  check Alcotest.int "recording off: no span" 0 (Spans.open_ off ~req:1 ~now:0 "x");
  check Alcotest.int "recording off: nothing kept" 0 (List.length (Spans.self_times off))

let test_self_time_adds_up () =
  (* Sequential, nested children: the self times of every span add up to
     the root durations — nothing lost, nothing counted twice. *)
  let sp = Spans.create ~on:true in
  for r = 0 to 9 do
    let t = r * 1000 in
    let root = Spans.interval sp ~req:r ~start:t ~stop:(t + 900) "request" in
    let call = Spans.interval sp ~parent:root ~req:r ~start:(t + 10) ~stop:(t + 400) "call" in
    ignore (Spans.interval sp ~parent:call ~req:r ~start:(t + 100) ~stop:(t + 200) "inner");
    ignore (Spans.interval sp ~parent:root ~req:r ~start:(t + 400) ~stop:(t + 880) "wait")
  done;
  let total = List.fold_left (fun a l -> a + l.Spans.l_self) 0 (Spans.self_times sp) in
  check Alcotest.int "sum of self = sum of roots" (Spans.roots_total sp) total

let test_slo_rate () =
  let pts = [ (32.0, 3000); (63.0, 5000); (95.0, 9000) ] in
  check (Alcotest.float 1e-9) "interpolated between 63 and 95" 87.0
    (Metrics.slo_rate ~limit:8000 pts);
  check (Alcotest.float 1e-9) "every rate passes" 95.0 (Metrics.slo_rate ~limit:10_000 pts);
  check (Alcotest.float 1e-9) "lowest rate fails" 0.0 (Metrics.slo_rate ~limit:1000 pts);
  check (Alcotest.float 1e-9) "refusals give no slope" 63.0
    (Metrics.slo_rate ~limit:8000 [ (32.0, 3000); (63.0, 5000); (95.0, max_int) ]);
  check (Alcotest.float 1e-9) "a slightly worse p99 moves it slightly"
    (63.0 +. (32.0 *. 3000.0 /. 4125.0))
    (Metrics.slo_rate ~limit:8000 [ (32.0, 3000); (63.0, 5000); (95.0, 9125) ])

let test_merge () =
  let a = Acc.create () and b = Acc.create () in
  Acc.ratio a "x" 10.0 2.0;
  Acc.ratio b "x" 30.0 8.0;
  Metrics.add (Acc.samples a "lat") 5;
  Metrics.add (Acc.samples b "lat") 7;
  a.Acc.setups <- [ 1.0 ];
  b.Acc.setups <- [ 3.0; 2.0 ];
  let t = Acc.create () in
  Acc.merge ~into:t a;
  Acc.merge ~into:t b;
  check (Alcotest.float 1e-12) "ratio of totals, not mean of ratios" 4.0 (Acc.value t "x");
  check Alcotest.int "samples pooled" 2 (Metrics.count (Acc.samples t "lat"));
  check (Alcotest.float 1e-12) "set-up is the median" 2.0 (Acc.setup_s t)

let () =
  Alcotest.run "perfbench"
    [
      ( "metrics",
        [
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
          Alcotest.test_case "median plus the tail with 10 samples beyond" `Quick
            test_tail_rule;
          Alcotest.test_case "window trimming" `Quick test_trim;
          Alcotest.test_case "slo rate interpolation" `Quick test_slo_rate;
          Alcotest.test_case "legs merge as ratios of totals" `Quick test_merge;
        ] );
      ( "spans",
        [
          Alcotest.test_case "covered length" `Quick test_covered;
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "self times add up to the roots" `Quick test_self_time_adds_up;
        ] );
    ]
