module History = Lineup_history.History
module Serial_history = Lineup_history.Serial_history
module Op = Lineup_history.Op
module Explore = Lineup_scheduler.Explore

let pp_history_section ppf h =
  let key = Serial_history.ops_thread_key (History.ops h) in
  let xml =
    Observation_file.group_to_xml ~key
      ~interleavings:[ Observation_file.interleaving_tokens h ]
  in
  Fmt.pf ppf "%s" (Xml.to_string xml)

let summary (r : Check.result) =
  match r.verdict with
  | Check.Pass ->
    let p2 =
      match r.phase2 with
      | Some p -> Fmt.str ", %d concurrent executions" p.stats.Explore.executions
      | None -> ""
    in
    Fmt.str "PASS (%d serial histories%s)" r.phase1.histories p2
  | Check.Cancelled -> "CANCELLED: check incomplete, no verdict"
  | Check.Fail (Check.Nondeterministic _) -> "FAIL: nondeterministic serial behavior"
  | Check.Fail (Check.No_witness _) -> "FAIL: non-linearizable history"
  | Check.Fail (Check.Stuck_unjustified _) -> "FAIL: unjustified blocking (stuck history)"
  | Check.Fail (Check.Thread_exception _) -> "FAIL: operation raised an exception"

let pp_check_result ?(times = false) ppf ~(adapter : Adapter.t) ~test (r : Check.result) =
  let pp_time ppf t = if times then Fmt.pf ppf " in %.3fs" t in
  Fmt.pf ppf "@[<v>Line-Up check of %s@,@,Test:@,%a@,@," adapter.name Test_matrix.pp test;
  (match r.verdict with
   | Check.Pass | Check.Cancelled -> Fmt.pf ppf "Verdict: %s@," (summary r)
   | Check.Fail (Check.Nondeterministic (s1, s2)) ->
     Fmt.pf ppf
       "Line-Up encountered nondeterministic serial behavior;@,\
        no deterministic sequential specification exists.@,\
        Diverging serial histories:@,  %a@,  %a@,"
       Serial_history.pp s1 Serial_history.pp s2
   | Check.Fail (Check.No_witness h) ->
     Fmt.pf ppf
       "Line-Up encountered a non-linearizable history:@,%a" pp_history_section h
   | Check.Fail (Check.Stuck_unjustified (h, op)) ->
     Fmt.pf ppf
       "Line-Up encountered a stuck history whose pending operation %a@,\
        has no serial justification (erroneous blocking):@,%a"
       Op.pp op pp_history_section h
   | Check.Fail (Check.Thread_exception { tid; message }) ->
     Fmt.pf ppf "Operation on thread %d raised: %s@," tid message);
  Fmt.pf ppf "@,Phase 1: %d serial histories%a (%a)@," r.phase1.histories pp_time r.phase1.time
    Explore.pp_stats r.phase1.stats;
  (match r.phase2 with
   | Some p ->
     Fmt.pf ppf "Phase 2: %d concurrent histories%a (%a)@," p.histories pp_time p.time
       Explore.pp_stats p.stats
   | None -> Fmt.pf ppf "Phase 2: not run (phase 1 did not complete)@,");
  Fmt.pf ppf "@]"

let check_result_to_string ?times ~adapter ~test r =
  Fmt.str "%a" (fun ppf () -> pp_check_result ?times ppf ~adapter ~test r) ()
