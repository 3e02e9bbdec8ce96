open Helpers
module Value = Lineup_value.Value
module History = Lineup_history.History
module Lin_check = Lineup_spec.Lin_check
module Specs = Lineup_spec.Specs
module Conc = Lineup_conc
module Metrics = Lineup_observe.Metrics
open Lineup

let run ?config adapter cols = Check.run ?config adapter (Test_matrix.make cols)

let expect_pass name r =
  if not (Check.passed r) then
    Alcotest.failf "%s: expected PASS, got %s" name (Report.summary r)

let expect_fail name r =
  if Check.passed r then Alcotest.failf "%s: expected FAIL, got PASS" name

let suite =
  [
    test "correct counter passes" (fun () ->
        expect_pass "counter"
          (run Conc.Counters.correct [ [ inv "Inc"; inv "Get" ]; [ inv "Inc" ] ]));
    test "counter1 fails with a non-witnessed history (§2.2.1)" (fun () ->
        let r = run Conc.Counters.buggy_unlocked [ [ inv "Inc"; inv "Get" ]; [ inv "Inc" ] ] in
        match r.Check.verdict with
        | Check.Fail (Check.No_witness h) ->
          (* cross-validate with the explicit-spec checker: the violating
             history must also be refuted by the counter specification *)
          Alcotest.(check bool) "WGL agrees" false (Lin_check.check Specs.counter h)
        | _ -> Alcotest.failf "unexpected verdict: %s" (Report.summary r));
    test "counter2 passes the two-phase check (its blocking is serial too)" (fun () ->
        (* §2.2.2: the synthesized spec itself blocks — Line-Up cannot
           refute Counter2; only a manual spec can (test_lin_check) *)
        expect_pass "counter2"
          (run Conc.Counters.buggy_stuck [ [ inv "Inc"; inv "Get" ]; [ inv "Inc" ] ]));
    test "spec-backed queue passes with blocking Take" (fun () ->
        let adapter = Conc.Spec_impl.adapter Specs.queue in
        expect_pass "queue"
          (run adapter [ [ inv_int "Enqueue" 1; inv "Take" ]; [ inv "Take"; inv_int "Enqueue" 2 ] ]));
    test "spec-backed semaphore passes" (fun () ->
        let adapter = Conc.Spec_impl.adapter (Specs.semaphore ~initial:0) in
        expect_pass "semaphore"
          (run adapter [ [ inv "Wait" ]; [ inv "Release"; inv "TryWait" ] ]));
    test "fig. 1 queue bug caught" (fun () ->
        let r =
          run Conc.Concurrent_queue.pre
            [
              [ inv_int "Enqueue" 200; inv_int "Enqueue" 400 ];
              [ inv "TryDequeue"; inv "TryDequeue" ];
            ]
        in
        match r.Check.verdict with
        | Check.Fail (Check.No_witness h) ->
          (* the violating history shows a TryDequeue failing although the
             queue was provably non-empty; the explicit queue spec agrees *)
          Alcotest.(check bool) "WGL agrees" false (Lin_check.check Specs.queue h)
        | _ -> Alcotest.failf "unexpected verdict: %s" (Report.summary r));
    test "generalized vs classic: MRE lost signal (§5.5)" (fun () ->
        let cols = [ [ inv "Wait" ]; [ inv "Set" ] ] in
        let generalized = run Conc.Manual_reset_event.lost_signal cols in
        (match generalized.Check.verdict with
         | Check.Fail (Check.Stuck_unjustified _) -> ()
         | _ -> Alcotest.failf "expected stuck violation, got %s" (Report.summary generalized));
        let classic =
          run ~config:(Check.config_with ~classic_only:true ()) Conc.Manual_reset_event.lost_signal
            cols
        in
        expect_pass "classic misses the blocking bug" classic);
    test "phase-1 nondeterminism: CancellationTokenSource" (fun () ->
        let r =
          run Conc.Cancellation_token_source.adapter
            [ [ inv "Cancel" ]; [ inv "IsCancellationRequested" ] ]
        in
        match r.Check.verdict with
        | Check.Fail (Check.Nondeterministic (s1, s2)) ->
          Alcotest.(check bool) "distinct" false (Lineup_history.Serial_history.equal s1 s2);
          Alcotest.(check (option Alcotest.reject)) "phase 2 skipped" None
            (Option.map ignore r.Check.phase2)
        | _ -> Alcotest.failf "expected nondeterminism, got %s" (Report.summary r));
    test "barrier: nonlinearizable by absence of full serial histories" (fun () ->
        let r = run Conc.Barrier.adapter [ [ inv "SignalAndWait" ]; [ inv "SignalAndWait" ] ] in
        (match r.Check.verdict with
         | Check.Fail (Check.No_witness _) -> ()
         | _ -> Alcotest.failf "expected no-witness, got %s" (Report.summary r));
        (* phase 1 must have recorded only stuck serial histories *)
        Alcotest.(check int) "no full serial histories" 0
          (Observation.num_full r.Check.observation);
        Alcotest.(check bool) "stuck histories exist" true
          (Observation.num_stuck r.Check.observation > 0));
    test "phase-1 history count: 1x2 with two ops = 2 orders" (fun () ->
        let r = run Conc.Counters.correct [ [ inv "Inc" ]; [ inv "Get" ] ] in
        Alcotest.(check int) "histories" 2 r.Check.phase1.Check.histories);
    test "phase-2 completeness: violating histories are real (cross-validated)" (fun () ->
        (* every violation Line-Up reports on the buggy semaphore must be
           refuted by the explicit semaphore spec too — Theorem 5 in
           practice *)
        let r = run Conc.Semaphore_slim.pre [ [ inv "Release" ]; [ inv "Release" ] ] in
        match r.Check.verdict with
        | Check.Fail (Check.No_witness h) ->
          Alcotest.(check bool) "spec agrees" false
            (Lin_check.check (Specs.semaphore ~initial:0) h)
        | _ -> Alcotest.failf "unexpected verdict: %s" (Report.summary r));
    test "exception in an operation is reported as Thread_exception" (fun () ->
        let adapter =
          Adapter.make ~name:"thrower" ~universe:[ inv "Boom" ] (fun () ->
              { Adapter.invoke = (fun _ -> failwith "kaboom") })
        in
        let r = run adapter [ [ inv "Boom" ] ] in
        match r.Check.verdict with
        | Check.Fail (Check.Thread_exception _) -> ()
        | _ -> Alcotest.failf "expected exception report, got %s" (Report.summary r));
    test "config_with applies preemption bound and caps" (fun () ->
        let config = Check.config_with ~preemption_bound:(Some 0) ~max_executions:(Some 5) () in
        let r =
          run ~config Conc.Counters.correct [ [ inv "Inc"; inv "Inc" ]; [ inv "Inc"; inv "Get" ] ]
        in
        match r.Check.phase2 with
        | Some p2 ->
          Alcotest.(check bool) "capped" true (p2.Check.stats.Lineup_scheduler.Explore.executions <= 5)
        | None -> Alcotest.fail "phase 2 missing");
    test "verdict summary strings" (fun () ->
        let r = run Conc.Counters.correct [ [ inv "Inc" ] ] in
        Alcotest.(check bool) "pass prefix" true
          (String.length (Report.summary r) >= 4 && String.sub (Report.summary r) 0 4 = "PASS"));
    test "bag nondeterminism is flagged (root cause H)" (fun () ->
        let r =
          run Conc.Concurrent_bag.adapter
            [ [ inv_int "Add" 10; inv_int "Add" 20 ]; [ inv "TryTake" ] ]
        in
        expect_fail "bag" r);
    test "segmented blocking collection Count anomaly (root cause I)" (fun () ->
        let r =
          run Conc.Blocking_collection.segmented
            [ [ inv_int "Add" 200; inv_int "Add" 400 ]; [ inv "Count" ] ]
        in
        expect_fail "count" r);
    test "fifo blocking collection passes the same test" (fun () ->
        let r =
          run Conc.Blocking_collection.fifo
            [ [ inv_int "Add" 200; inv_int "Add" 400 ]; [ inv "Count" ] ]
        in
        expect_pass "fifo" r);
    test "michael-scott queue passes a mixed test" (fun () ->
        let r =
          run Conc.Michael_scott_queue.adapter
            [ [ inv_int "Enqueue" 200; inv "TryDequeue" ]; [ inv_int "Enqueue" 400; inv "TryPeek" ] ]
        in
        expect_pass "msq" r);
    test "capped 3x3 queue: phase-2 counters are pinned" (fun () ->
        (* The dedup table and the witness search may change how fast phase
           2 runs, never what it counts: these are the values of the
           original polymorphic-hash dedup and per-probe witness check. *)
        let m = Metrics.create () in
        let config = Check.config_with ~max_executions:(Some 2000) () in
        let r =
          Check.run ~config ~metrics:m Conc.Concurrent_queue.correct
            (Test_matrix.make
               [
                 [ inv_int "Enqueue" 1; inv "TryDequeue"; inv "Count" ];
                 [ inv_int "Enqueue" 2; inv "TryPeek"; inv "TryDequeue" ];
                 [ inv "TryDequeue"; inv_int "Enqueue" 3; inv "ToArray" ];
               ])
        in
        expect_pass "queue 3x3" r;
        List.iter
          (fun (k, v) -> Alcotest.(check int) k v (Metrics.get m ("check.phase2." ^ k)))
          [
            "histories_distinct", 100;
            "dedup_hits", 1900;
            "witness_probes", 2066;
            "histories_fingerprint", 46599132707;
          ]);
    test "dedup keeps histories that differ past the 10th word apart" (fun () ->
        let h last =
          history
            [
              call 0 0 "Enqueue" ~arg:(Value.int 1) ();
              call 1 0 "Enqueue" ~arg:(Value.int 2) ();
              ret 0 0 Value.unit;
              ret 1 0 Value.unit;
              call 0 1 "TryDequeue" ();
              call 1 1 "TryDequeue" ();
              ret 0 1 (Value.int 1);
              ret 1 1 (Value.int last);
            ]
        in
        let h1 = h 2 and h2 = h 3 in
        let shallow h = Hashtbl.hash (History.events h, History.is_stuck h) in
        Alcotest.(check int) "the 10-word hash cannot tell them apart" (shallow h1) (shallow h2);
        Alcotest.(check bool) "History.hash can" true (History.hash h1 <> History.hash h2);
        let seen = Check.Seen.create 16 in
        let add h = Check.Seen.add seen ~hash:(History.hash h) h in
        Alcotest.(check bool) "first is new" true (add h1);
        Alcotest.(check bool) "second is new" true (add h2);
        Alcotest.(check bool) "first again is a hit" false (add h1);
        Alcotest.(check bool) "second again is a hit" false (add h2);
        (* equal hashes still compare the histories themselves *)
        let seen = Check.Seen.create 16 in
        Alcotest.(check bool) "colliding first" true (Check.Seen.add seen ~hash:0 h1);
        Alcotest.(check bool) "colliding second" true (Check.Seen.add seen ~hash:0 h2));
  ]

let tests = suite
