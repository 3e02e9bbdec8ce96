(* Spin-assume: [Rt.spin_while] blocks a spin-wait whose iteration only
   read values that are still current, instead of yielding.

   The load-bearing property: against test-local copies of the two
   migrated spin-waits written as plain [Rt.yield] loops (the reference),
   the combinator explores the same distinct histories (count and
   fingerprint) in no more executions, under every memory model, with and
   without the reduction, at preemption bounds 0 and 1. The unit tests pin
   when an iteration may block: a write, a successful CAS, or a value that
   changes under the iteration makes it yield; reads and failed CASes over
   unchanged values make it wait, so a spin-wait that can never end is a
   deadlock rather than a step-budget divergence. *)

open Helpers
module Rt = Lineup_runtime.Rt
module Var = Lineup_runtime.Shared_var
module Var_array = Lineup_runtime.Var_array
module Memory_model = Lineup_runtime.Memory_model
module Explore = Lineup_scheduler.Explore
module Metrics = Lineup_observe.Metrics
module Value = Lineup_value.Value
module Invocation = Lineup_history.Invocation
module History = Lineup_history.History
module Conc = Lineup_conc
open Lineup

(* ------------------------------------------------------------------ *)
(* Explorer-level behaviour                                            *)
(* ------------------------------------------------------------------ *)

let config = { Explore.default_config with preemption_bound = None; max_steps = 500 }

(* Every way the executions of [threads] end, exhaustively. *)
let ends ?(config = config) threads =
  let acc = ref [] in
  let stats =
    Explore.explore config
      ~setup:(fun () -> threads ())
      ~on_execution:(fun (o : Explore.exec_outcome) ->
        let label =
          match o.exec_end with
          | Explore.All_finished -> "finished"
          | Explore.Deadlock _ -> "deadlock"
          | Explore.Serial_stuck _ -> "serial-stuck"
          | Explore.Diverged -> "diverged"
        in
        if not (List.mem label !acc) then acc := label :: !acc;
        `Continue)
      ()
  in
  List.sort compare !acc, stats

let check_ends what expected threads =
  let got, _ = ends threads in
  Alcotest.(check (list string)) what expected got

let unit_tests =
  [
    test "a spin-wait nobody ends is a deadlock, not a divergence" (fun () ->
        check_ends "ends" [ "deadlock" ] (fun () ->
            let flag = Var.make ~name:"flag" false in
            [| (fun () -> Rt.spin_while (fun () -> not (Var.read flag))) |]);
        (* the same loop written with yield spins into the step budget *)
        check_ends "yield reference" [ "diverged" ] (fun () ->
            let flag = Var.make ~name:"flag" false in
            [|
              (fun () ->
                while not (Var.read flag) do
                  Rt.yield ()
                done);
            |]));
    test "a body that writes yields instead of blocking" (fun () ->
        check_ends "ends" [ "diverged" ] (fun () ->
            let flag = Var.make ~name:"flag" false in
            let scratch = Var.make ~name:"scratch" 0 in
            [|
              (fun () ->
                Rt.spin_while (fun () ->
                    Var.write scratch 1;
                    not (Var.read flag)));
            |]));
    test "a read location that changes during the iteration makes it yield" (fun () ->
        (* T0 reads x = 0, then z; T1's write of x can land between the two
           reads. That iteration still answers "keep spinning", but x has
           changed: blocking would wait for a second change that never
           comes. Every schedule must finish. *)
        check_ends "ends" [ "finished" ] (fun () ->
            let x = Var.make ~name:"x" 0 in
            let z = Var.make ~name:"z" 0 in
            [|
              (fun () ->
                Rt.spin_while (fun () ->
                    let v = Var.read x in
                    ignore (Var.read z);
                    v = 0));
              (fun () -> Var.write x 1);
            |]));
    test "a waiting spinner wakes on a write to what it read" (fun () ->
        let got, stats =
          ends (fun () ->
              let x = Var.make ~name:"x" 0 in
              [|
                (fun () -> Rt.spin_while (fun () -> Var.read x = 0));
                (fun () -> Var.write x 1);
              |])
        in
        Alcotest.(check (list string)) "ends" [ "finished" ] got;
        (* the spinner runs at most one iteration before the write: it
           either exits at once, or waits and re-reads after it *)
        Alcotest.(check int) "executions" 2 stats.Explore.executions);
    test "under tso a buffered store does not wake a spinner; its flush does" (fun () ->
        let config = { config with Explore.memory = Memory_model.Tso } in
        let got, _ =
          ends ~config (fun () ->
              let x = Var.make ~name:"x" 0 in
              [|
                (fun () -> Rt.spin_while (fun () -> Var.read x = 0));
                (fun () -> Var.write x 1);
              |])
        in
        Alcotest.(check (list string)) "ends" [ "finished" ] got);
    test "failed CASes qualify, a successful CAS does not" (fun () ->
        (* a held lock no one releases: every iteration is a failed CAS *)
        check_ends "failed CAS" [ "deadlock" ] (fun () ->
            let lock = Var.make ~name:"lock" 1 in
            [| (fun () -> Rt.spin_while (fun () -> not (Var.cas lock 0 1))) |]);
        (* the first iteration's CAS succeeds and asks for another round,
           whose CAS fails and ends the loop: blocking after the first
           round would lose that *)
        check_ends "successful CAS" [ "finished" ] (fun () ->
            let x = Var.make ~name:"x" 0 in
            [| (fun () -> Rt.spin_while (fun () -> Var.cas x 0 1)) |]));
    test "a choice in the body disqualifies the iteration" (fun () ->
        check_ends "ends" [ "diverged"; "finished" ] (fun () ->
            let flag = Var.make ~name:"flag" false in
            [| (fun () -> Rt.spin_while (fun () -> (not (Var.read flag)) && Rt.choose 2 = 0)) |]));
    test "serial mode: a spin-wait that cannot end is serial-stuck" (fun () ->
        let config = { Explore.serial_config with max_steps = 500 } in
        let got, _ =
          ends ~config (fun () ->
              let flag = Var.make ~name:"flag" false in
              [|
                (fun () ->
                  Rt.op_boundary ();
                  Rt.spin_while (fun () -> not (Var.read flag)));
              |])
        in
        Alcotest.(check (list string)) "ends" [ "serial-stuck" ] got);
  ]

(* ------------------------------------------------------------------ *)
(* Reference adapters: the migrated spin-waits as plain yield loops     *)
(* ------------------------------------------------------------------ *)

let spin_yield cond =
  while cond () do
    Rt.yield ()
  done

(* Copy of the fenced [Conc.Dekker] with [spin_yield] for [Rt.spin_while]. *)
let dekker_reference =
  let create () =
    let flag = Var_array.make ~volatile:true ~name:"dekker.flag" 2 false in
    let turn = Var.make ~volatile:true ~name:"dekker.turn" 0 in
    let count = Var.make ~name:"dekker.count" 0 in
    let invoke (i : Invocation.t) =
      match i.name with
      | "Inc" ->
        let me = Rt.self () land 1 in
        let other = 1 - me in
        Var_array.write flag me true;
        Rt.fence ();
        Var.write turn other;
        Rt.fence ();
        spin_yield (fun () -> Var_array.read flag other && Var.read turn = other);
        Var.write count (Var.read count + 1);
        Rt.fence ();
        Var_array.write flag me false;
        Value.unit
      | "Get" -> Value.int (Var.read count)
      | _ -> Fmt.invalid_arg "dekker reference: %s" i.name
    in
    { Adapter.invoke }
  in
  Adapter.make ~name:"DekkerCounter (yield reference)" ~universe:[ inv "Inc"; inv "Get" ]
    ~spec:(Lineup_spec.Spec.Packed Lineup_spec.Specs.counter) create

(* Copy of [Conc.Segment_queue] with [spin_yield] in [await_commit]. *)
type segment = {
  values : int Var_array.t;
  committed : bool Var_array.t;
  low : int Var.t;
  high : int Var.t;
  next : segment option Var.t;
}

let segment_queue_reference =
  let capacity = 2 in
  let new_segment () =
    {
      values = Var_array.make ~name:"seg.val" capacity 0;
      committed = Var_array.make ~volatile:true ~name:"seg.c" capacity false;
      low = Var.make ~volatile:true ~name:"seg.low" 0;
      high = Var.make ~volatile:true ~name:"seg.high" 0;
      next = Var.make ~volatile:true ~name:"seg.next" None;
    }
  in
  let create () =
    let seg0 = new_segment () in
    let head = Var.make ~volatile:true ~name:"sq.head" seg0 in
    let tail = Var.make ~volatile:true ~name:"sq.tail" seg0 in
    let rec enqueue x =
      let s = Var.read tail in
      let i = Var.read s.high in
      if i < capacity then begin
        if Var.cas s.high i (i + 1) then begin
          Var_array.write s.values i x;
          Var_array.write s.committed i true
        end
        else begin
          Rt.yield ();
          enqueue x
        end
      end
      else begin
        (match Var.read s.next with
         | None ->
           let s' = new_segment () in
           if Var.cas s.next None (Some s') then ignore (Var.cas tail s s')
         | Some s' -> ignore (Var.cas tail s s'));
        Rt.yield ();
        enqueue x
      end
    in
    let await_commit s i = spin_yield (fun () -> not (Var_array.read s.committed i)) in
    let rec take ~remove =
      let s = Var.read head in
      let i = Var.read s.low in
      if i >= capacity then begin
        match Var.read s.next with
        | None -> Value.Fail
        | Some s' ->
          ignore (Var.cas head s s');
          Rt.yield ();
          take ~remove
      end
      else if i >= Var.read s.high then Value.Fail
      else if (not remove) || Var.cas s.low i (i + 1) then begin
        await_commit s i;
        Value.int (Var_array.read s.values i)
      end
      else begin
        Rt.yield ();
        take ~remove
      end
    in
    let is_empty () =
      let s = Var.read head in
      let low = Var.read s.low in
      low >= Var.read s.high && Option.is_none (Var.read s.next)
    in
    let invoke (i : Invocation.t) =
      match i.name, i.arg with
      | "Enqueue", Value.Int x ->
        enqueue x;
        Value.unit
      | "TryDequeue", Value.Unit -> take ~remove:true
      | "TryPeek", Value.Unit -> take ~remove:false
      | "IsEmpty", Value.Unit -> Value.bool (is_empty ())
      | _ -> Fmt.invalid_arg "segment queue reference: %s" i.name
    in
    { Adapter.invoke }
  in
  Adapter.make ~name:"SegmentQueue (yield reference)"
    ~universe:Conc.Segment_queue.adapter.Adapter.universe
    ~spec:(Lineup_spec.Spec.Packed Lineup_spec.Specs.queue) create

(* ------------------------------------------------------------------ *)
(* The gate: combinator vs reference                                   *)
(* ------------------------------------------------------------------ *)

(* The distinct histories of one exhaustive phase-2 exploration (no
   membership check, so a failing class is compared in full too), and how
   many executions it took. [None]: the run outgrew [budget]. *)
let explore ~budget ~memory ~por ~bound adapter test =
  let config =
    {
      Explore.default_config with
      preemption_bound = Some bound;
      max_executions = Some budget;
      por;
      memory;
    }
  in
  let seen = Hashtbl.create 64 in
  let stats =
    Harness.run_phase config ~adapter ~test ~on_history:(fun r ->
        let h = r.Harness.history in
        Hashtbl.replace seen (History.events h, History.is_stuck h) ();
        `Continue)
  in
  if not stats.Explore.complete then None
  else Some (List.sort compare (List.of_seq (Hashtbl.to_seq_keys seen)), stats.Explore.executions)

type case = {
  memory : Memory_model.t;
  por : bool;
  bound : int;
  columns : string list list;
}

let print_case c =
  Fmt.str "%s%s -p %d %s" (Memory_model.to_string c.memory)
    (if c.por then " --por" else "")
    c.bound
    (String.concat " " (List.map (String.concat ",") c.columns))

let case_gen ops ~rows =
  let open QCheck.Gen in
  let* memory = oneofl [ Memory_model.Sc; Memory_model.Tso; Memory_model.Pso ] in
  let* por = bool in
  let* bound = int_range 0 1 in
  let+ columns = list_repeat 2 (list_repeat rows (oneofl ops)) in
  { memory; por; bound; columns }

let matrix_of universe columns =
  let find name = List.find (fun (i : Invocation.t) -> Invocation.to_string i = name) universe in
  Test_matrix.make (List.map (List.map find) columns)

(* Same distinct histories, in no more executions. A reference that
   outgrew [budget] decides nothing; a combinator that does has already
   taken more executions than its reference. *)
let agrees ~budget ~memory ~por ~bound ~reference adapter test =
  let go = explore ~budget ~memory ~por ~bound in
  match go reference test with
  | None -> QCheck.assume_fail ()
  | Some (histories, executions) -> (
    match go adapter test with
    | None -> false
    | Some (histories', executions') -> histories = histories' && executions' <= executions)

let gate ?(affordable = fun _ -> true) ~name ~count ~gen ~budget ~adapter ~reference () =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count
       (QCheck.make ~print:print_case gen)
       (fun c ->
         QCheck.assume (affordable c);
         agrees ~budget ~memory:c.memory ~por:c.por ~bound:c.bound ~reference adapter
           (matrix_of adapter.Adapter.universe c.columns)))

(* Contended Dekker (an Inc in each column) under a weak model costs the
   yield reference 19k executions with --por at -p 0, and 158k to 1.5M
   otherwise; those runs are not drawn. *)
let dekker_gate =
  gate ~name:"Dekker: spin_while = yield reference (histories, executions)" ~count:30
    ~gen:(case_gen [ "Inc"; "Get" ] ~rows:1)
    ~affordable:(fun c ->
      c.memory = Memory_model.Sc
      || (c.por && c.bound = 0)
      || not (List.for_all (List.mem "Inc") c.columns))
    ~budget:25_000 ~adapter:Conc.Dekker.fenced ~reference:dekker_reference ()

let segment_queue_gate =
  gate ~name:"SegmentQueue 2x2: spin_while = yield reference (histories, executions)" ~count:25
    ~gen:
      (case_gen [ "Enqueue(200)"; "Enqueue(400)"; "TryDequeue"; "TryPeek"; "IsEmpty" ] ~rows:2)
    ~budget:4_000 ~adapter:Conc.Segment_queue.adapter ~reference:segment_queue_reference ()

let tests = unit_tests @ [ dekker_gate; segment_queue_gate ]
