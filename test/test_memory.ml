(* Relaxed-memory exploration: TSO/PSO store buffers as scheduler choices.

   The load-bearing properties:
   - `--memory sc` (the default) is byte-identical to the pre-weak-memory
     checker: same summary, same metrics JSON, and no flushes key ever
     appears (qcheck over random counter matrices);
   - the fence-free Dekker adapter passes under SC (every sequentially
     consistent interleaving preserves Peterson's mutual exclusion — the
     seeded bug is *provably* invisible to SC exploration) and fails under
     both tso and pso, while the fenced variant passes everywhere;
   - weak-memory runs are -j invariant (flush choices ride the prefix
     codec across the frontier split);
   - the §5.7 store-buffering monitor cross-validates the real weak
     exploration: the adapter it flags genuinely fails under `--memory
     tso`, and the adapter it passes genuinely survives it;
   - Shared_var.peek forwards from the blocked thread's own store buffer
     (a thread that buffered a write and then blocks on peeking it must
     wake, not deadlock). *)

open Helpers
module Explore = Lineup_scheduler.Explore
module Memory_model = Lineup_runtime.Memory_model
module Var = Lineup_runtime.Shared_var
module Rt = Lineup_runtime.Rt
module Metrics = Lineup_observe.Metrics
module Tso = Lineup_checkers.Tso_monitor
module Conc = Lineup_conc
open Lineup

let dekker_test = Test_matrix.make [ [ inv "Inc"; inv "Get" ]; [ inv "Inc" ] ]

let run_with ?phase2_domains ?(por = false) ?pb ~memory adapter test =
  let m = Metrics.create () in
  let config =
    match pb with
    | None -> Check.config_with ?phase2_domains ~por ~memory ()
    | Some b -> Check.config_with ~preemption_bound:(Some b) ?phase2_domains ~por ~memory ()
  in
  let r = Check.run ~config ~metrics:m adapter test in
  r, m

(* ------------------------------------------------------------------ *)
(* SC byte-identity                                                    *)
(* ------------------------------------------------------------------ *)

let sc_identity adapter test () =
  let m_default = Metrics.create () in
  let r_default = Check.run ~metrics:m_default adapter test in
  let r_sc, m_sc = run_with ~memory:Memory_model.Sc adapter test in
  Alcotest.(check string) "summary" (Report.summary r_default) (Report.summary r_sc);
  Alcotest.(check string) "metrics json" (Metrics.to_json m_default) (Metrics.to_json m_sc);
  Alcotest.(check bool) "no flushes key under sc" false
    (List.mem_assoc "explore.phase2.flushes" (Metrics.to_assoc m_sc))

let counter_ops = [| inv "Inc"; inv "Get"; inv_int "Set" 5 |]

let matrix_gen =
  let open QCheck.Gen in
  let op = map (fun i -> counter_ops.(i)) (int_bound 2) in
  let col = list_size (int_range 1 2) op in
  map Test_matrix.make (list_size (int_range 1 2) col)

let matrix_arb = QCheck.make ~print:(Fmt.to_to_string Test_matrix.pp) matrix_gen

let qcheck_sc_identity =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"explicit sc = default on random counter matrices" ~count:25
       matrix_arb (fun test ->
         let m_default = Metrics.create () in
         let r_default = Check.run ~metrics:m_default Conc.Counters.correct test in
         let r_sc, m_sc = run_with ~memory:Memory_model.Sc Conc.Counters.correct test in
         Report.summary r_default = Report.summary r_sc
         && Metrics.to_json m_default = Metrics.to_json m_sc
         && not (List.mem_assoc "explore.phase2.flushes" (Metrics.to_assoc m_sc))))

(* ------------------------------------------------------------------ *)
(* The seeded fence bug                                                *)
(* ------------------------------------------------------------------ *)

let fence_free = Conc.Dekker.fence_free
let fenced = Conc.Dekker.fenced

let peek_forwards_adapter =
  (* writes a flag, then blocks until its own peek sees it — only read
     forwarding from the issuing thread's buffer makes this wake under
     tso/pso (the write is still buffered when the wake predicate runs) *)
  let create () =
    let flag = Var.make ~name:"fw.flag" false in
    let invoke (i : Lineup_history.Invocation.t) =
      match i.Lineup_history.Invocation.name with
      | "SetAndWait" ->
        Var.write flag true;
        Rt.block ~wake:(fun () -> Var.peek flag) "own write visible";
        Lineup_value.Value.unit
      | n -> Fmt.invalid_arg "peek_forwards: %s" n
    in
    { Adapter.invoke }
  in
  Adapter.make ~name:"peek-forwards" ~universe:[ inv "SetAndWait" ] create

let counter_test_matrix = Test_matrix.make [ [ inv "Inc"; inv "Get" ]; [ inv "Inc" ] ]

let suite =
  [
    test "sc identity: correct counter" (sc_identity Conc.Counters.correct counter_test_matrix);
    test "sc identity: segment queue"
      (sc_identity Conc.Segment_queue.adapter
         (Test_matrix.make [ [ inv_int "Enqueue" 200 ]; [ inv "TryDequeue"; inv "IsEmpty" ] ]));
    test "sc identity: fence-free dekker (the bug is invisible to sc)"
      (sc_identity fence_free dekker_test);
    qcheck_sc_identity;
    test "tso finds the fence bug sc cannot" (fun () ->
        let r_sc, _ = run_with ~memory:Memory_model.Sc fence_free dekker_test in
        Alcotest.(check bool) "sc passes" true (Check.passed r_sc);
        let r_tso, _ = run_with ~memory:Memory_model.Tso fence_free dekker_test in
        Alcotest.(check bool) "tso fails" true (Check.failed r_tso));
    test "pso finds the fence bug too" (fun () ->
        let r, _ = run_with ~memory:Memory_model.Pso fence_free dekker_test in
        Alcotest.(check bool) "pso fails" true (Check.failed r));
    test "the fences restore correctness under tso and pso" (fun () ->
        (* bound 1 with por: the seeded bug needs exactly one preemption, so
           it is found at this bound (asserted below on the fence-free
           variant). The fenced protocol must pass with exactly the sc
           histories; spin-assume keeps each weak run within 150k
           executions (839k when the spin loop yielded). *)
        let histories m =
          ( Metrics.get m "check.phase2.histories_distinct",
            Metrics.get m "check.phase2.histories_fingerprint" )
        in
        let _, m_sc = run_with ~por:true ~pb:1 ~memory:Memory_model.Sc fenced dekker_test in
        List.iter
          (fun memory ->
            let name = Memory_model.to_string memory in
            let r, m = run_with ~por:true ~pb:1 ~memory fenced dekker_test in
            if not (Check.passed r) then
              Alcotest.failf "fenced dekker under %s: %s" name (Report.summary r);
            Alcotest.(check (pair int int)) (name ^ " histories = sc") (histories m_sc) (histories m);
            let executions = Metrics.get m "explore.phase2.executions" in
            if executions > 150_000 then
              Alcotest.failf "fenced dekker under %s: %d executions" name executions;
            let r, _ = run_with ~por:true ~pb:1 ~memory fence_free dekker_test in
            if not (Check.failed r) then
              Alcotest.failf "fence-free dekker under %s at bound 1: %s" name (Report.summary r))
          [ Memory_model.Tso; Memory_model.Pso ]);
    test "fence-free Inc/Inc under tso: spinners wait, so the flush is forced" (fun () ->
        (* With yielding spin loops the two spinners alternated without
           ever forcing the flush that would let one of them in, and the
           run failed on a 50,000-step divergence ("unjustified blocking").
           Waiting spinners leave the flush as the only move. The lost
           update the missing fence allows is invisible to Inc alone. *)
        let r, m =
          run_with ~por:true ~pb:1 ~memory:Memory_model.Tso fence_free
            (Test_matrix.make [ [ inv "Inc" ]; [ inv "Inc" ] ])
        in
        Alcotest.(check int) "divergences" 0 (Metrics.get m "explore.phase2.divergences");
        Alcotest.(check bool) "passes" true (Check.passed r));
    test "weak runs count their flushes" (fun () ->
        let _, m =
          run_with ~memory:Memory_model.Tso peek_forwards_adapter
            (Test_matrix.make [ [ inv "SetAndWait" ] ])
        in
        Alcotest.(check bool) "flushes > 0" true (Metrics.get m "explore.phase2.flushes" > 0));
    test "tso verdict and histories are -j invariant" (fun () ->
        let run phase2_domains =
          let r, _ = run_with ?phase2_domains ~memory:Memory_model.Tso fence_free dekker_test in
          Report.summary r
        in
        let mono = run None in
        Alcotest.(check string) "-j 1 = monolithic" mono (run (Some 1));
        Alcotest.(check string) "-j 4 = monolithic" mono (run (Some 4)));
    test "tso monitor warning cross-validates against real tso exploration" (fun () ->
        (* the monitor flags a store-load window on the fence-free variant,
           and the flagged behaviour is genuinely weak: the same test fails
           under --memory tso. The fenced variant is clean both ways. *)
        let flagged = Tso.run ~adapter:fence_free ~test:dekker_test () in
        Alcotest.(check bool) "monitor flags fence-free" true (List.length flagged > 0);
        let r, _ = run_with ~memory:Memory_model.Tso fence_free dekker_test in
        Alcotest.(check bool) "flagged => fails under tso" true (Check.failed r);
        let clean = Tso.run ~adapter:fenced ~test:dekker_test () in
        Alcotest.(check int) "monitor passes fenced" 0 (List.length clean)
        (* the pass direction (fenced survives --memory tso) is asserted by
           "the fences restore correctness" above; not re-run here. *));
    test "peek forwards from the blocked thread's own buffer" (fun () ->
        List.iter
          (fun memory ->
            let r, _ =
              run_with ~memory peek_forwards_adapter
                (Test_matrix.make [ [ inv "SetAndWait" ]; [ inv "SetAndWait" ] ])
            in
            if not (Check.passed r) then
              Alcotest.failf "peek forwarding under %s: %s" (Memory_model.to_string memory)
                (Report.summary r))
          [ Memory_model.Sc; Memory_model.Tso; Memory_model.Pso ]);
    test "memory model strings round-trip" (fun () ->
        List.iter
          (fun m ->
            match Memory_model.of_string (Memory_model.to_string m) with
            | Some m' when m' = m -> ()
            | _ -> Alcotest.failf "round-trip failed for %s" (Memory_model.to_string m))
          [ Memory_model.Sc; Memory_model.Tso; Memory_model.Pso ];
        Alcotest.(check bool) "unknown rejected" true (Memory_model.of_string "weak" = None));
  ]

let tests = suite
