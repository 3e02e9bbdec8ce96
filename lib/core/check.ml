module History = Lineup_history.History
module Serial_history = Lineup_history.Serial_history
module Op = Lineup_history.Op
module Explore = Lineup_scheduler.Explore
module Metrics = Lineup_observe.Metrics
module Trace = Lineup_observe.Trace

type membership =
  | Auto
  | Generic
  | Monitor

let membership_name = function
  | Auto -> "auto"
  | Generic -> "generic"
  | Monitor -> "monitor"

let membership_of_string = function
  | "auto" -> Some Auto
  | "generic" -> Some Generic
  | "monitor" -> Some Monitor
  | _ -> None

type config = {
  phase1 : Explore.config;
  phase2 : Explore.config;
  classic_only : bool;
  dedup_histories : bool;
  membership : membership;
  phase2_domains : int option;
  phase2_frontier_depth : int;
}

let default_config =
  {
    phase1 = Explore.serial_config;
    phase2 = Explore.default_config;
    classic_only = false;
    dedup_histories = true;
    membership = Auto;
    phase2_domains = None;
    phase2_frontier_depth = 4;
  }

let config_with ?preemption_bound ?max_executions ?(classic_only = false)
    ?(membership = default_config.membership) ?phase2_domains
    ?(frontier_depth = default_config.phase2_frontier_depth) ?(por = false)
    ?(memory = Lineup_runtime.Memory_model.Sc) () =
  let phase2 = default_config.phase2 in
  let phase2 =
    match preemption_bound with
    | Some pb -> { phase2 with Explore.preemption_bound = pb }
    | None -> phase2
  in
  let phase2 =
    match max_executions with
    | Some cap -> { phase2 with Explore.max_executions = cap }
    | None -> phase2
  in
  (* POR and the memory model apply to phase 2 only: phase 1's serial
     enumeration is the specification synthesis and must see every serial
     order (§4.3) — and the sequential specification is memory-model
     independent, so it always runs SC. *)
  let phase2 = { phase2 with Explore.por; memory } in
  {
    default_config with
    phase2;
    classic_only;
    membership;
    phase2_domains;
    phase2_frontier_depth = frontier_depth;
  }

let memory config = config.phase2.Explore.memory

type violation =
  | Nondeterministic of Serial_history.t * Serial_history.t
  | No_witness of History.t
  | Stuck_unjustified of History.t * Op.t
  | Thread_exception of { tid : int; message : string }

type verdict =
  | Pass
  | Fail of violation
  | Cancelled

type phase_report = {
  stats : Explore.stats;
  histories : int;
  time : float;
}

type analysis = {
  a_name : string;
  a_render : string;
  a_violation : bool;
  a_metrics : (string * int) list;
}

type result = {
  verdict : verdict;
  observation : Observation.t;
  phase1 : phase_report;
  phase2 : phase_report option;
  analyses : analysis list;
}

let passed r = match r.verdict with Pass -> true | Fail _ | Cancelled -> false
let failed r = match r.verdict with Fail _ -> true | Pass | Cancelled -> false
let cancelled r = match r.verdict with Cancelled -> true | Pass | Fail _ -> false

let pp_violation ppf = function
  | Nondeterministic (s1, s2) ->
    Fmt.pf ppf
      "@[<v>nondeterministic serial behavior:@,  %a@,  %a@]"
      Serial_history.pp s1 Serial_history.pp s2
  | No_witness h ->
    Fmt.pf ppf "@[<v>non-linearizable history (no serial witness):@,%a@]" History.pp h
  | Stuck_unjustified (h, op) ->
    Fmt.pf ppf
      "@[<v>stuck history with unjustified pending operation %a:@,%a@]" Op.pp op History.pp h
  | Thread_exception { tid; message } ->
    Fmt.pf ppf "operation on thread %d raised: %s" tid message

let exception_of (outcome : Explore.exec_outcome) =
  match outcome.errors with
  | [] -> None
  | (tid, e) :: _ -> Some (Thread_exception { tid; message = Printexc.to_string e })

(* Monotonic, not wall-clock: phase durations must not jump when NTP
   adjusts the system clock. *)
let now () = Lineup_observe.Monotonic.now ()

let never_cancelled () = false

(* Counter ingestion. All values are sums of ints over a deterministic job
   set, so per-job registries merge to -j-independent totals; wall-clock
   stays out of the metrics and goes to the trace stream instead. *)
let add_explore_stats = Pipeline.add_explore_stats
let mincr metrics k = match metrics with Some m -> Metrics.incr m k | None -> ()

let trace_phase phase (report : phase_report) =
  if Trace.enabled () then
    Trace.emit ("check." ^ phase)
      [
        "histories", Trace.Int report.histories;
        "executions", Trace.Int report.stats.Explore.executions;
        "dt", Trace.Float report.time;
      ]

(* Phase 1: enumerate serial executions, synthesize the specification. *)
let synthesize ?(config = default_config) ?(cancelled = never_cancelled) ?metrics adapter test =
  let observation = Observation.create () in
  let p1_start = now () in
  let p1_violation = ref None in
  let p1_interrupted = ref false in
  let p1_stats =
    Harness.run_phase config.phase1 ~adapter ~test ~on_history:(fun r ->
        if cancelled () then begin
          p1_interrupted := true;
          `Stop
        end
        else
        match exception_of r.outcome with
        | Some v ->
          p1_violation := Some v;
          `Stop
        | None -> (
          let serial =
            match Serial_history.of_history r.history with
            | Some s -> s
            | None ->
              Fmt.failwith "Check: phase 1 produced a non-serial history:@ %a" History.pp
                r.history
          in
          match Observation.add observation serial with
          | Ok () -> `Continue
          | Error (s1, s2) ->
            p1_violation := Some (Nondeterministic (s1, s2));
            `Stop))
  in
  let phase1 =
    {
      stats = p1_stats;
      histories = Observation.num_full observation + Observation.num_stuck observation;
      time = now () -. p1_start;
    }
  in
  (match metrics with
   | Some m ->
     add_explore_stats m ~prefix:"phase1" p1_stats;
     Metrics.add m "check.phase1.histories" phase1.histories
   | None -> ());
  trace_phase "phase1" phase1;
  match !p1_violation with
  | Some v -> Error (Fail v, phase1)
  | None ->
    if !p1_interrupted then Error (Cancelled, phase1) else Ok (observation, phase1)

(* ------------------------------------------------------------------ *)
(* Phase 2 checking                                                    *)
(* ------------------------------------------------------------------ *)

(* The phase-2 dedup set. A key carries its history's [History.hash],
   computed once per execution by the caller, which also folds it into the
   fingerprint; lookups never rehash. *)
module Seen = struct
  module Tbl = Hashtbl.Make (struct
    type t = int * History.t

    let equal (h1, k1) (h2, k2) = Int.equal h1 h2 && History.equal k1 k2
    let hash (h, _) = h
  end)

  type t = unit Tbl.t

  let create n : t = Tbl.create n

  let add t ~hash h =
    if Tbl.mem t (hash, h) then false
    else begin
      Tbl.add t (hash, h) ();
      true
    end
end

(* The Line-Up phase-2 history check, expressed as an analyzer so that the
   pipeline can drive it — alone (a plain [run]) or alongside the §5.6
   comparison checkers ([compare]) — over a single exploration. One state
   exists per exploration: a single one on the monolithic path, one per
   frontier partition on the parallel path (each partition job runs on its
   own domain, so the cells and the dedup table are never shared; states
   merge in frontier order, first violation winning). *)
type p2_state = {
  mutable found : violation option;
  mutable histories : int;
  mutable dedup_hits : int;
  mutable witness_searches : int;
  witness_probes : int ref;
  mutable stuck_checks : int;
  stuck_probes : int ref;
  (* Spec-specialized membership decisions, by method; [m_fallbacks] counts
     histories a declared spec could not decide (the generic search then
     ran, adding to [witness_searches]/[stuck_checks] as usual). *)
  mutable m_monitor : int;
  mutable m_pcomp : int;
  mutable m_direct : int;
  mutable m_fallbacks : int;
  (* Order-independent fingerprint of the distinct-history set: a masked
     sum of structural hashes, merged by addition, so it is identical
     across [-j] modes and — when the reduction is sound — across
     [por] on/off. The CI equivalence gate compares it. *)
  mutable fp_acc : int;
  (* Distinct histories seen: schedules frequently reproduce the same
     event sequence, and the witness verdict only depends on the history,
     so each distinct one is checked once. (Scoped to this state — the
     parallel path may re-check a history that also occurs in another
     partition.) *)
  seen : Seen.t;
}

let p2_init () =
  {
    found = None;
    histories = 0;
    dedup_hits = 0;
    witness_searches = 0;
    witness_probes = ref 0;
    stuck_checks = 0;
    stuck_probes = ref 0;
    m_monitor = 0;
    m_pcomp = 0;
    m_direct = 0;
    m_fallbacks = 0;
    fp_acc = 0;
    seen = Seen.create 256;
  }

let fp_mask = 0x3FFF_FFFF_FFFF (* 46 bits: summable without overflow on 63-bit ints *)

(* Membership of one distinct history. The spec-specialized path
   ([Spec_check]) only consumes the history — the fingerprint is recorded
   before the decision and the enumeration upstream never sees it — so
   `--membership` modes differ in how a verdict is computed, never in what
   is checked. [Auto] consults the adapter's declared spec for the
   near-linear class checks and falls back to the generic observation
   search; [Monitor] additionally forces the direct Wing–Gong search (and
   the Definition-2 stuck check) before falling back. *)
(* Distinct-history ids for the event trace, unique across worker domains.
   The trace stream is documented non-deterministic, so ids need not be
   dense or ordered — only distinct, to keep replayed histories apart. *)
let trace_hist_counter = Atomic.make 0

let p2_step config ~observation ~spec ~init st (r : Harness.run_result) =
  let hash = History.hash r.history in
  match exception_of r.outcome with
  | Some v ->
    st.found <- Some v;
    `Done
  | None when config.dedup_histories && not (Seen.add st.seen ~hash r.history) ->
    (* a history seen for the first time is recorded by the test itself *)
    st.dedup_hits <- st.dedup_hits + 1;
    `Continue
  | None ->
    st.histories <- st.histories + 1;
    st.fp_acc <- (st.fp_acc + (hash land fp_mask)) land fp_mask;
    (* Emit each distinct complete history's events before deciding it, so
       a rejecting history is always in the trace and [lineup monitor
       --replay] on the trace file reproduces the verdict (the CI
       monitor-equivalence gate). Stuck histories are skipped: replay
       covers the complete-history fragment. *)
    if
      Trace.enabled ()
      && (not (History.is_stuck r.history))
      && History.is_complete r.history
    then begin
      let id = Atomic.fetch_and_add trace_hist_counter 1 in
      List.iter
        (fun ev -> Lineup_monitor.Mevent.emit_trace ~hist:id ev)
        (History.events r.history)
    end;
    let h = r.history in
    let generic_stuck () =
      st.stuck_checks <- st.stuck_checks + 1;
      match Observation.linearizable_stuck ~probes:st.stuck_probes observation h with
      | Ok () -> `Continue
      | Error op ->
        st.found <- Some (Stuck_unjustified (h, op));
        `Done
    in
    let generic_full () =
      st.witness_searches <- st.witness_searches + 1;
      match Observation.find_witness_full ~probes:st.witness_probes observation h with
      | Some _ -> `Continue
      | None ->
        st.found <- Some (No_witness h);
        `Done
    in
    let spec_decide ~force_spec =
      match spec with
      | None -> None
      | Some packed -> (
        let decision, meth = Lineup_spec.Spec_check.decide ~force_spec packed ~init h in
        (match meth with
         | Some Lineup_spec.Spec_check.Monitor_check -> st.m_monitor <- st.m_monitor + 1
         | Some Lineup_spec.Spec_check.Pcomp_check -> st.m_pcomp <- st.m_pcomp + 1
         | Some Lineup_spec.Spec_check.Direct_check -> st.m_direct <- st.m_direct + 1
         | None -> ());
        match decision with
        | Lineup_spec.Spec_check.Accept -> Some `Continue
        | Lineup_spec.Spec_check.Reject ->
          st.found <- Some (No_witness h);
          Some `Done
        | Lineup_spec.Spec_check.Reject_stuck op ->
          st.found <- Some (Stuck_unjustified (h, op));
          Some `Done
        | Lineup_spec.Spec_check.Unsupported _ ->
          st.m_fallbacks <- st.m_fallbacks + 1;
          None)
    in
    if History.is_stuck h then
      if config.classic_only then `Continue
      else begin
        match config.membership with
        | Auto | Generic -> generic_stuck ()
        | Monitor -> (
          match spec_decide ~force_spec:true with Some r -> r | None -> generic_stuck ())
      end
    else begin
      match config.membership with
      | Generic -> generic_full ()
      | Auto -> (
        match spec_decide ~force_spec:false with Some r -> r | None -> generic_full ())
      | Monitor -> (
        match spec_decide ~force_spec:true with Some r -> r | None -> generic_full ())
    end

let p2_merge a b =
  {
    found = (match a.found with Some _ -> a.found | None -> b.found);
    histories = a.histories + b.histories;
    dedup_hits = a.dedup_hits + b.dedup_hits;
    witness_searches = a.witness_searches + b.witness_searches;
    witness_probes = ref (!(a.witness_probes) + !(b.witness_probes));
    stuck_checks = a.stuck_checks + b.stuck_checks;
    stuck_probes = ref (!(a.stuck_probes) + !(b.stuck_probes));
    m_monitor = a.m_monitor + b.m_monitor;
    m_pcomp = a.m_pcomp + b.m_pcomp;
    m_direct = a.m_direct + b.m_direct;
    m_fallbacks = a.m_fallbacks + b.m_fallbacks;
    fp_acc = (a.fp_acc + b.fp_acc) land fp_mask;
    seen = Seen.create 1;
  }

let p2_counters st =
  [
    "histories_distinct", st.histories;
    "dedup_hits", st.dedup_hits;
    "witness_searches", st.witness_searches;
    "witness_probes", !(st.witness_probes);
    "stuck_checks", st.stuck_checks;
    "stuck_probes", !(st.stuck_probes);
    "membership_monitor", st.m_monitor;
    "membership_pcomp", st.m_pcomp;
    "membership_direct", st.m_direct;
    "membership_fallbacks", st.m_fallbacks;
    "histories_fingerprint", st.fp_acc;
    "violation", (if st.found = None then 0 else 1);
  ]

let lineup_analyzer config ~observation ~spec ~init:init_seq =
  let sid = Stdlib.Type.Id.make () in
  let module A = struct
    type state = p2_state

    let id = sid
    let name = "lineup"
    let needs_log = false
    let init = p2_init
    let step st r = p2_step config ~observation ~spec ~init:init_seq st r
    let merge = p2_merge
    let metrics = p2_counters

    let render st =
      match st.found with
      | None -> Fmt.str "line-up: no violation in %d distinct histories\n" st.histories
      | Some v -> Fmt.str "line-up: %a\n" pp_violation v

    let violation st = st.found <> None
  end in
  (Analyzer.T (module A), sid)

(* The legacy metric keys of the phase-2 checker, kept alongside the
   pipeline's [analyze.lineup.*] projection of the same counters. *)
let add_checker_counters m (st : p2_state) =
  List.iter
    (fun (k, v) ->
      if k <> "violation" then Metrics.add m ("check.phase2." ^ k) v)
    (p2_counters st)

let analysis_of pack =
  {
    a_name = (let (Analyzer.Packed ((module A), _)) = pack in A.name);
    a_render = Analyzer.render pack;
    a_violation = Analyzer.violation pack;
    a_metrics = Analyzer.metrics pack;
  }

(* One pipeline run over the concurrent schedules of [test]. *)
let run_pipeline config ~cancelled ~metrics ~analyzers ~adapter ~test =
  Pipeline.run ?domains:config.phase2_domains
    ~frontier_depth:config.phase2_frontier_depth ~cancelled ?metrics config.phase2 ~analyzers
    ~adapter ~test ()

(* ------------------------------------------------------------------ *)
(* Multi-process sharding: serializable phase-2 partitions              *)
(* ------------------------------------------------------------------ *)

(* One frontier partition's phase-2 result, self-contained and free of
   closures so it can be marshaled across a process boundary or to a
   checkpoint file. [pp_state.seen] is emptied before shipping: the dedup
   table is partition-local working state, and nothing downstream of the
   merge reads it (matching [p2_merge], which discards it too). *)
type p2_partition = {
  pp_index : int;
  pp_state : p2_state;
  pp_stats : Explore.stats;
  pp_done : bool;  (** the Line-Up analyzer reported [`Done] (violation found) *)
  pp_interrupted : bool;
}

let partition_index p = p.pp_index
let partition_stop p = p.pp_done || p.pp_interrupted
let partition_executions p = p.pp_stats.Explore.executions
let partition_distinct p = p.pp_state.histories

let split_frontier ?(config = default_config) ?(cancelled = never_cancelled) adapter test =
  let interrupted = ref false in
  let frontier =
    Harness.split_phase config.phase2 ~depth:config.phase2_frontier_depth ~adapter ~test
      ~on_history:(fun _ ->
        if cancelled () then begin
          interrupted := true;
          `Stop
        end
        else `Continue)
  in
  (frontier, !interrupted)

(* Exactly the per-partition job of [Pipeline.run_frontier] specialized to
   the Line-Up analyzer (the only analyzer of a plain [run], so access
   logging is off): replay [prefix] frozen, enumerate its subtree, step the
   phase-2 state on each history, stop at the first violation. Running this
   in another process against the same adapter, test, observation and
   config produces the same [p2_partition] the in-process [-j] path feeds
   its merge — that is the sharding determinism contract. *)
let run_partition ?(config = default_config) ?(cancelled = never_cancelled) ~observation ~index
    ~prefix adapter test =
  let st = p2_init () in
  let done_ = ref false in
  let interrupted = ref false in
  let stats =
    Harness.run_phase_from ~log:false config.phase2 ~prefix ~adapter ~test
      ~on_history:(fun r ->
        if cancelled () then begin
          interrupted := true;
          `Stop
        end
        else
          match
            p2_step config ~observation ~spec:adapter.Adapter.spec ~init:test.Test_matrix.init
              st r
          with
          | `Done ->
            done_ := true;
            `Stop
          | `Continue -> `Continue)
  in
  {
    pp_index = index;
    pp_state = { st with seen = Seen.create 1 };
    pp_stats = stats;
    pp_done = !done_;
    pp_interrupted = !interrupted;
  }

let ingest_phase1 ?metrics (phase1 : phase_report) =
  (match metrics with
   | Some m ->
     add_explore_stats m ~prefix:"phase1" phase1.stats;
     Metrics.add m "check.phase1.histories" phase1.histories
   | None -> ());
  trace_phase "phase1" phase1

(* Resume-aware frontier-order merge: [partitions] is whatever completed —
   any order, possibly more than needed (checkpoints past an early
   violation are ignored, not trusted). The deterministic prefix rule of
   [Pool.map_seq] is re-applied here: keep partitions up to and including
   the earliest one that stopped (violation or interruption), which makes
   the merged verdict, report and metrics a function of the frontier alone
   — byte-identical to the single-process [-j] run, and independent of
   completion order, retries, or how many runs it took to gather the
   checkpoints. *)
let merge_partitions ?metrics ?(warmup_interrupted = false) ~observation ~phase1
    ~(frontier : Explore.frontier) partitions =
  mincr metrics "check.runs";
  let p2_start = now () in
  let sorted = List.sort (fun a b -> Int.compare a.pp_index b.pp_index) partitions in
  let cut =
    List.fold_left
      (fun acc p -> if partition_stop p && p.pp_index < acc then p.pp_index else acc)
      max_int sorted
  in
  let kept = if warmup_interrupted then [] else List.filter (fun p -> p.pp_index <= cut) sorted in
  let st =
    match kept with
    | [] -> p2_init ()
    | p0 :: rest -> List.fold_left (fun acc p -> p2_merge acc p.pp_state) p0.pp_state rest
  in
  let stats =
    List.fold_left (fun acc p -> Explore.merge_stats acc p.pp_stats) frontier.Explore.warmup kept
  in
  let interrupted = warmup_interrupted || List.exists (fun p -> p.pp_interrupted) kept in
  (match metrics with
   | Some m ->
     add_explore_stats m ~prefix:"phase2" frontier.Explore.warmup;
     Metrics.add m "explore.phase2.partitions" (List.length frontier.Explore.prefixes);
     Metrics.add m "explore.phase2.warmup_executions"
       frontier.Explore.warmup.Explore.executions;
     List.iteri
       (fun i p ->
         add_explore_stats m ~prefix:"phase2" p.pp_stats;
         Metrics.add m
           (Fmt.str "explore.phase2.partition.%03d.executions" i)
           p.pp_stats.Explore.executions)
       kept;
     List.iter (fun (k, v) -> Metrics.add m ("analyze.lineup." ^ k) v) (p2_counters st);
     add_checker_counters m st
   | None -> ());
  let phase2 = { stats; histories = st.histories; time = now () -. p2_start } in
  trace_phase "phase2" phase2;
  let verdict =
    match st.found with
    | Some v -> Fail v
    | None -> if interrupted then Cancelled else Pass
  in
  (match verdict with
   | Pass -> mincr metrics "check.passes"
   | Fail _ -> mincr metrics "check.violations"
   | Cancelled -> mincr metrics "check.cancelled");
  { verdict; observation; phase1; phase2 = Some phase2; analyses = [] }

let run ?(config = default_config) ?(cancelled = never_cancelled) ?metrics ?observation
    ?(analyzers = []) adapter test =
  mincr metrics "check.runs";
  let phase1_result =
    match observation with
    | Some obs ->
      let histories = Observation.num_full obs + Observation.num_stuck obs in
      mincr metrics "check.phase1.skipped";
      Ok (obs, { stats = Explore.empty_stats; histories; time = 0.0 })
    | None -> synthesize ~config ~cancelled ?metrics adapter test
  in
  match phase1_result with
  | Error (verdict, phase1) ->
    (match verdict with
     | Fail _ -> mincr metrics "check.violations"
     | Cancelled -> mincr metrics "check.cancelled"
     | Pass -> ());
    (* Attached analyzers still get their single exploration of the
       concurrent schedules: a failed synthesis is a Line-Up verdict, not a
       reason to drop the race/serializability findings of [compare]. *)
    let analyses =
      if analyzers = [] then []
      else
        let rep = run_pipeline config ~cancelled ~metrics ~analyzers ~adapter ~test in
        List.map analysis_of rep.Pipeline.packs
    in
    { verdict; observation = Observation.create (); phase1; phase2 = None; analyses }
  | Ok (observation, phase1) ->
    (* Phase 2: enumerate concurrent executions once, drive the Line-Up
       analyzer — plus any attached extra analyzers — over each. *)
    let p2_start = now () in
    let lineup, lineup_id =
      lineup_analyzer config ~observation ~spec:adapter.Adapter.spec
        ~init:test.Test_matrix.init
    in
    let rep =
      run_pipeline config ~cancelled ~metrics ~analyzers:(lineup :: analyzers) ~adapter ~test
    in
    let st =
      match rep.Pipeline.packs with
      | lineup_pack :: _ -> Option.get (Analyzer.project lineup_pack lineup_id)
      | [] -> assert false
    in
    (match metrics with Some m -> add_checker_counters m st | None -> ());
    let phase2 =
      { stats = rep.Pipeline.stats; histories = st.histories; time = now () -. p2_start }
    in
    trace_phase "phase2" phase2;
    let verdict =
      match st.found with
      | Some v -> Fail v
      | None -> if rep.Pipeline.interrupted then Cancelled else Pass
    in
    (match verdict with
     | Pass -> mincr metrics "check.passes"
     | Fail _ -> mincr metrics "check.violations"
     | Cancelled -> mincr metrics "check.cancelled");
    let analyses = List.map analysis_of (List.tl rep.Pipeline.packs) in
    { verdict; observation; phase1; phase2 = Some phase2; analyses }
