(* The traced half of the perfbench benchmark: drives one workload in
   process through the public entry points of each layer and records a
   span around every call, so perfbench/run.py can split the traced wall
   time into per-layer self times.

   Spans (name, parent, duration, minor words) are kept in memory and
   written once, as one JSON object, when the workload ends. A span's self
   time is its duration minus its children's; every span nests inside the
   root "workload" span, so the self times add up to the traced wall time.
   Calls made once per history or per line are summed into one aggregate
   span per loop instead of one span per call.

   Layers are timed from outside: a Check.run cannot be split from the
   outside, so after it returns the tracer replays its phases layer by
   layer, using the same configuration and the same execution counts:
   Harness exploration (with this file's own dedup table, timed as bench
   glue), then Observation and Spec_check membership on each distinct
   history. Comparing the Check phase times with the replayed layer times
   gives the Check bookkeeping residual.

   Usage (one workload per process):
     tracer.exe check   OUT CLASS PB CAP POR MEMORY COLUMN...   (CAP 0 = uncapped)
     tracer.exe shard   OUT CLASS PB STORE_DIR COLUMN...
     tracer.exe random  OUT SEED ROWS COLS SAMPLES CAP MEMBERSHIP/CLASS...
     tracer.exe monitor OUT SPEC FILE [SPEC FILE]... *)

module H = Lineup_history
module History = H.History
module Explore = Lineup_scheduler.Explore
module Metrics = Lineup_observe.Metrics
module Monotonic = Lineup_observe.Monotonic
module Spec_check = Lineup_spec.Spec_check
module Mon = Lineup_monitor
module Wire = Lineup_shard.Wire
module Store = Lineup_shard.Store
open Lineup

(* ---------------- spans ---------------- *)

type span = {
  id : int;
  parent : int;
  name : string;
  mutable dur : float;
  mutable words : float;
}

let spans = ref []
let open_spans = ref []
let next_id = ref 0

let new_span name =
  let parent = match !open_spans with s :: _ -> s.id | [] -> -1 in
  let s = { id = !next_id; parent; name; dur = 0.; words = 0. } in
  incr next_id;
  spans := s :: !spans;
  s

let charge s t0 w0 =
  s.dur <- s.dur +. (Monotonic.now () -. t0);
  s.words <- s.words +. (Gc.minor_words () -. w0)

let with_span name f =
  let s = new_span name in
  open_spans := s :: !open_spans;
  let w0 = Gc.minor_words () in
  let t0 = Monotonic.now () in
  Fun.protect
    ~finally:(fun () ->
      charge s t0 w0;
      open_spans := List.tl !open_spans)
    f

(* An aggregate span: a leaf under the currently open span that sums many
   short calls. *)
let agg = new_span

let in_agg s f =
  let w0 = Gc.minor_words () in
  let t0 = Monotonic.now () in
  let r = f () in
  charge s t0 w0;
  r

(* ---------------- counters and verdicts ---------------- *)

let counters : (string, float) Hashtbl.t = Hashtbl.create 64

let count k v =
  Hashtbl.replace counters k (v +. Option.value ~default:0. (Hashtbl.find_opt counters k))

let counti k v = count k (float_of_int v)
let count_metrics m = List.iter (fun (k, v) -> counti k v) (Metrics.to_assoc m)

(* (key, answer) pairs for run.py's oracle, in workload order. *)
let verdicts = ref []
let verdict k v = verdicts := (k, v) :: !verdicts

let verdict_name r =
  if Check.passed r then "pass" else if Check.failed r then "fail" else "cancelled"

let write_json path =
  let b = Buffer.create 4096 in
  let num f = Printf.sprintf "%.17g" f in
  Buffer.add_string b "{\"spans\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"id\":%d,\"parent\":%d,\"name\":%s,\"dur\":%s,\"words\":%s}" s.id
           s.parent (Metrics.json_string s.name) (num s.dur) (num s.words)))
    (List.rev !spans);
  Buffer.add_string b "],\"counters\":{";
  Hashtbl.to_seq counters |> List.of_seq |> List.sort compare
  |> List.iteri (fun i (k, v) ->
         if i > 0 then Buffer.add_char b ',';
         Buffer.add_string b (Printf.sprintf "%s:%s" (Metrics.json_string k) (num v)));
  Buffer.add_string b "},\"verdicts\":[";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "[%s,%s]" (Metrics.json_string k) (Metrics.json_string v)))
    (List.rev !verdicts);
  Buffer.add_string b "]}\n";
  let oc = open_out_bin path in
  Buffer.output_buffer oc b;
  close_out oc

(* ---------------- inputs ---------------- *)

(* The CLI's column syntax: "Enqueue(1),TryDequeue". *)
let parse_column s =
  String.split_on_char ',' s
  |> List.filter (fun x -> String.trim x <> "")
  |> List.map (fun s ->
         match String.index_opt s '(' with
         | None -> H.Invocation.make (String.trim s)
         | Some i ->
           let arg = String.sub s (i + 1) (String.length s - i - 2) in
           H.Invocation.make
             ~arg:(Lineup_value.Value.of_string arg)
             (String.trim (String.sub s 0 i)))

let adapter_of name = (Lineup_conc.Registry.find name).Lineup_conc.Registry.adapter

(* The CLI's configuration for [-p PB --max-executions CAP]. *)
let config_of ?(por = false) ?(memory = Lineup_runtime.Memory_model.Sc) ?membership ~pb ~cap
    () =
  Check.config_with ~preemption_bound:(Some pb)
    ~max_executions:(if cap > 0 then Some cap else None)
    ?membership ~por ~memory ()

(* ---------------- layer replays ---------------- *)

(* Phase 1: the serial exploration Check ran ([limit] executions), then
   the observation set built from its serial histories. *)
let replay_phase1 (config : Check.config) ~adapter ~test ~limit =
  if limit > 0 then begin
    let serials = ref [] in
    let n = ref 0 in
    with_span "explore.phase1" (fun () ->
        ignore
          (Harness.run_phase config.Check.phase1 ~adapter ~test ~on_history:(fun r ->
               incr n;
               (match H.Serial_history.of_history r.Harness.history with
                | Some s when r.Harness.outcome.Explore.errors = [] -> serials := s :: !serials
                | _ -> ());
               if !n >= limit then `Stop else `Continue)));
    let obs = Observation.create () in
    with_span "observation.add" (fun () ->
        let rec go = function
          | [] -> ()
          | s :: rest -> ( match Observation.add obs s with Ok () -> go rest | Error _ -> ())
        in
        go (List.rev !serials))
  end

module Key = struct
  type t = H.Event.t list * bool

  let equal (a : t) b = a = b
  let hash (k : t) = Hashtbl.hash_param 256 256 k
end

module Seen = Hashtbl.Make (Key)

(* Phase 2: re-explore the [limit] executions Check explored and keep each
   distinct history once (error-free ones only: Check stops at a thread
   exception without checking membership). *)
let replay_explore ~limit run =
  let seen = Seen.create 1024 in
  let distinct = ref [] in
  let n = ref 0 in
  let stats =
    with_span "explore.phase2" (fun () ->
        let dedup = agg "bench.dedup" in
        run ~on_history:(fun (r : Harness.run_result) ->
            incr n;
            in_agg dedup (fun () ->
                let k = (History.events r.history, History.is_stuck r.history) in
                if (not (Seen.mem seen k)) && r.outcome.Explore.errors = [] then begin
                  Seen.add seen k ();
                  distinct := r.history :: !distinct
                end);
            if !n >= limit then `Stop else `Continue))
  in
  counti "replay.executions" stats.Explore.executions;
  if stats.Explore.executions <> limit then counti "replay.mismatches" 1;
  List.rev !distinct

(* Membership of each distinct history, dispatched as Check's default
   (Auto) mode does: stuck histories to the generic Definition-2 check,
   complete ones to the declared spec's checker, falling back to the
   generic witness search when it refuses. With no [spec] (the Generic
   mode), every complete history goes to the generic search. *)
let replay_membership ~observation ~spec ~init histories =
  with_span "membership" (fun () ->
      let witness = agg "observation.witness" in
      let stuck = agg "observation.stuck" in
      let by_meth =
        [
          Some Spec_check.Monitor_check, agg "spec.monitor";
          Some Spec_check.Pcomp_check, agg "spec.pcomp";
          Some Spec_check.Direct_check, agg "spec.direct";
          None, agg "spec.unsupported";
        ]
      in
      let witness_probes = ref 0 in
      List.iter
        (fun h ->
          let generic () =
            counti "observation.searches" 1;
            ignore
              (in_agg witness (fun () ->
                   Observation.find_witness_full ~probes:witness_probes observation h))
          in
          if History.is_stuck h then
            ignore (in_agg stuck (fun () -> Observation.linearizable_stuck observation h))
          else
            match spec with
            | None -> generic ()
            | Some packed ->
              let w0 = Gc.minor_words () in
              let t0 = Monotonic.now () in
              let decision, meth = Spec_check.decide ~force_spec:false packed ~init h in
              charge (List.assoc meth by_meth) t0 w0;
              (match decision with
               | Spec_check.Unsupported _ ->
                 counti "spec.unsupported" 1;
                 generic ()
               | Spec_check.Accept | Spec_check.Reject | Spec_check.Reject_stuck _ -> ()))
        histories;
      counti "observation.probes" !witness_probes)

(* One Check.run result, decomposed layer by layer. *)
let decompose (config : Check.config) ~adapter ~test (r : Check.result) =
  count "check.phase1_s" r.Check.phase1.Check.time;
  replay_phase1 config ~adapter ~test ~limit:r.Check.phase1.Check.stats.Explore.executions;
  match r.Check.phase2 with
  | Some p2 when p2.Check.stats.Explore.executions > 0 ->
    count "check.phase2_s" p2.Check.time;
    let limit = p2.Check.stats.Explore.executions in
    let histories =
      replay_explore ~limit (fun ~on_history ->
          Harness.run_phase ~log:false config.Check.phase2 ~adapter ~test ~on_history)
    in
    let spec =
      match config.Check.membership with
      | Check.Generic -> None
      | Check.Auto | Check.Monitor -> adapter.Adapter.spec
    in
    replay_membership ~observation:r.Check.observation ~spec
      ~init:test.Test_matrix.init histories
  | Some p2 -> count "check.phase2_s" p2.Check.time
  | None -> ()

(* ---------------- workloads ---------------- *)

let check_workload ~cls ~pb ~cap ~por ~memory columns =
  let adapter = adapter_of cls in
  let test = Test_matrix.make (List.map parse_column columns) in
  let memory =
    match Lineup_runtime.Memory_model.of_string memory with
    | Some m -> m
    | None -> invalid_arg ("unknown memory model " ^ memory)
  in
  let config = config_of ~por ~memory ~pb ~cap () in
  let m = Metrics.create () in
  let r = with_span "check.run" (fun () -> Check.run ~config ~metrics:m adapter test) in
  count_metrics m;
  verdict cls (verdict_name r);
  decompose config ~adapter ~test r

(* Each of [classes] is MEMBERSHIP/CLASS, the --membership mode to run
   the class with and its registry name. *)
let random_workload ~seed ~rows ~cols ~samples ~cap classes =
  List.iter
    (fun arg ->
      let i = String.index arg '/' in
      let cls = String.sub arg (i + 1) (String.length arg - i - 1) in
      let membership =
        match Check.membership_of_string (String.sub arg 0 i) with
        | Some m -> m
        | None -> invalid_arg ("unknown membership mode in " ^ arg)
      in
      let adapter = adapter_of cls in
      let config = config_of ~membership ~pb:2 ~cap () in
      let m = Metrics.create () in
      let rep =
        with_span "check.run" (fun () ->
            Random_check.run_parallel ~config ~metrics:m ~domains:1 ~seed
              ~invocations:adapter.Adapter.universe ~rows ~cols ~samples adapter)
      in
      count_metrics m;
      verdict cls (if rep.Random_check.failed > 0 then "fail" else "pass");
      List.iter
        (fun (o : Random_check.test_outcome) ->
          decompose config ~adapter ~test:o.Random_check.test o.Random_check.result)
        rep.Random_check.outcomes)
    classes

(* Send [msgs] through a socketpair and decode them on a second domain,
   as the shard server and its workers do; returns the decoded messages
   and the framed bytes (4-byte length prefix + Marshal payload). *)
let wire_batch ~send ~recv msgs =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
    (fun () ->
      let n = List.length msgs in
      let receiver = Domain.spawn (fun () -> List.init n (fun _ -> recv b)) in
      List.iter (send a) msgs;
      let got = Domain.join receiver in
      let frame m = 4 + Bytes.length (Marshal.to_bytes m []) in
      let bytes = List.fold_left (fun acc m -> acc + frame m) 0 msgs in
      counti "wire.bytes" bytes;
      counti "wire.messages" n;
      List.filter_map Fun.id got)

let file_size path = (Unix.stat path).Unix.st_size

let shard_workload ~cls ~pb ~store_dir columns =
  let adapter = adapter_of cls in
  let test = Test_matrix.make (List.map parse_column columns) in
  let config = config_of ~pb ~cap:0 () in
  let m = Metrics.create () in
  match
    with_span "check.synthesize" (fun () -> Check.synthesize ~config ~metrics:m adapter test)
  with
  | Error _ -> verdict cls "phase1-fail"
  | Ok (obs, phase1) ->
    count "check.phase1_s" phase1.Check.time;
    replay_phase1 config ~adapter ~test ~limit:phase1.Check.stats.Explore.executions;
    let frontier, warmup_interrupted =
      with_span "frontier.split" (fun () -> Check.split_frontier ~config adapter test)
    in
    let prefixes = Array.of_list frontier.Explore.prefixes in
    let fingerprint = Store.fingerprint ~config ~adapter:adapter.Adapter.name ~test in
    (* server -> worker: job context and one task per partition *)
    let to_worker =
      Wire.Init
        {
          Wire.i_fingerprint = fingerprint;
          i_config = config;
          i_adapter = adapter.Adapter.name;
          i_test = test;
          i_observation = Observation_file.to_string obs;
        }
      :: (Array.to_list prefixes
         |> List.mapi (fun index p -> Wire.Task { index; prefix = Explore.prefix_to_string p }))
      @ [ Wire.Shutdown ]
    in
    let received =
      with_span "wire.roundtrip" (fun () ->
          wire_batch ~send:Wire.send_to_worker ~recv:Wire.recv_to_worker to_worker)
    in
    (* Workers rebuild the observation set from the Init XML. *)
    let worker_obs =
      match received with
      | Wire.Init i :: _ -> (
        match
          with_span "observation.rebuild" (fun () ->
              Observation_file.observation_of_histories
                (Observation_file.of_string i.Wire.i_observation))
        with
        | Ok o -> o
        | Error _ -> failwith "observation rebuilt from the wire is nondeterministic")
      | _ -> failwith "Init frame lost on the wire"
    in
    let slowest = ref 0. in
    let parts =
      Array.mapi
        (fun index prefix ->
          let t0 = Monotonic.now () in
          let p =
            with_span "frontier.partition" (fun () ->
                Check.run_partition ~config ~observation:worker_obs ~index ~prefix adapter test)
          in
          let dt = Monotonic.now () -. t0 in
          count "check.phase2_s" dt;
          slowest := Float.max !slowest dt;
          p)
        prefixes
    in
    count "frontier.partition_s_max" !slowest;
    counti "frontier.partitions" (Array.length parts);
    (* worker -> server: hello, then one result per partition *)
    let results =
      with_span "wire.roundtrip" (fun () ->
          wire_batch ~send:Wire.send_to_server ~recv:Wire.recv_to_server
            (Wire.Hello { wire = Wire.wire_version }
            :: Array.to_list
                 (Array.map
                    (fun part -> Wire.Result { index = Check.partition_index part; part })
                    parts)))
      |> List.filter_map (function Wire.Result { part; _ } -> Some part | _ -> None)
    in
    Store.init_dir ~dir:store_dir ~fingerprint;
    with_span "store.save" (fun () ->
        List.iter (Store.save_part ~dir:store_dir ~fingerprint) results);
    let parts_dir = Filename.concat store_dir "parts" in
    Sys.readdir parts_dir
    |> Array.iter (fun f -> counti "store.bytes" (file_size (Filename.concat parts_dir f)));
    let loaded = with_span "store.load" (fun () -> Store.load_parts ~dir:store_dir ~fingerprint) in
    if List.length loaded <> Array.length parts then counti "replay.mismatches" 1;
    let mm = Metrics.create () in
    Check.ingest_phase1 ~metrics:mm phase1;
    let r =
      with_span "frontier.merge" (fun () ->
          Check.merge_partitions ~metrics:mm ~warmup_interrupted ~observation:worker_obs ~phase1
            ~frontier loaded)
    in
    count_metrics mm;
    verdict cls (verdict_name r);
    Array.iteri
      (fun i prefix ->
        let limit = Check.partition_executions parts.(i) in
        let histories =
          replay_explore ~limit (fun ~on_history ->
              Harness.run_phase_from ~log:false config.Check.phase2 ~prefix ~adapter ~test
                ~on_history)
        in
        replay_membership ~observation:worker_obs ~spec:adapter.Adapter.spec
          ~init:test.Test_matrix.init histories)
      prefixes

(* The CLI's monitor path without its reader domain: parse every line,
   pass the events through the bounded ingest queue in chunks smaller than
   its capacity, then feed the engine. *)
let monitor_stream ~spec_name path =
  let spec =
    match Lineup_spec.Specs.find spec_name with
    | Some s -> s
    | None -> invalid_arg ("unknown specification " ^ spec_name)
  in
  let lines =
    with_span "bench.read" (fun () ->
        In_channel.with_open_bin path In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
        |> Array.of_list)
  in
  counti "mevent.lines" (Array.length lines);
  let parsed = with_span "mevent.parse" (fun () -> Array.map Mon.Mevent.parse lines) in
  let opts = Mon.Driver.default_opts in
  let items =
    with_span "ingest" (fun () ->
        let q = Mon.Ingest.create ~cap:opts.Mon.Driver.queue_cap opts.Mon.Driver.on_full in
        let chunk = max 1 (opts.Mon.Driver.queue_cap / 2) in
        let out = ref [] in
        let rec drain () =
          if Mon.Ingest.depth q > 0 then begin
            out := List.rev_append (Mon.Ingest.pop_batch q ~max:4096) !out;
            drain ()
          end
        in
        let n = Array.length parsed in
        let i = ref 0 in
        while !i < n do
          let stop = min n (!i + chunk) in
          for k = !i to stop - 1 do
            Mon.Ingest.push_line q parsed.(k)
          done;
          i := stop;
          drain ()
        done;
        Mon.Ingest.close q;
        List.rev !out)
  in
  let engine =
    Mon.Engine.create ~spec ~min_batch:opts.Mon.Driver.min_batch
      ~max_window:opts.Mon.Driver.max_window
  in
  let resident = ref 0 in
  let bad = ref false in
  (* The stream's last op (two items) is its one injected violation: a
     Reject before it is fed is a false alarm. *)
  let violation_at = List.length items - 2 in
  let early = ref false in
  with_span "engine.feed" (fun () ->
      List.iteri
        (fun i item ->
          if i = violation_at then
            early := Mon.Engine.verdict_now engine = Some Lineup_spec.Monitor.Reject;
          (match item with
           | Mon.Ingest.Ev { event; _ } -> Mon.Engine.feed engine event
           | Mon.Ingest.Shed_op { call; ret } -> Mon.Engine.shed engine ~call ~ret
           | Mon.Ingest.Bad _ -> bad := true);
          if i land 1023 = 0 then resident := max !resident (Mon.Engine.resident engine))
        items);
  let v = with_span "engine.finalize" (fun () -> Mon.Engine.finalize engine) in
  counti "engine.ops" (Mon.Engine.ops engine);
  counti "engine.windows" (Mon.Engine.windows engine);
  counti "engine.resident_peak" (max !resident (Mon.Engine.resident engine));
  verdict spec_name
    (if !bad then "malformed"
     else if !early then "reject-early"
     else
       match v with
       | Lineup_spec.Monitor.Accept -> "accept"
       | Lineup_spec.Monitor.Reject -> "reject"
       | Lineup_spec.Monitor.Unsupported _ -> "unsupported")

let rec pairs = function
  | a :: b :: rest -> (a, b) :: pairs rest
  | [] -> []
  | [ _ ] -> invalid_arg "monitor: expected SPEC FILE pairs"

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let mode, out, rest =
    match args with
    | mode :: out :: rest -> mode, out, rest
    | _ -> invalid_arg "usage: tracer.exe MODE OUT ARGS..."
  in
  let run () =
    match mode, rest with
    | "check", cls :: pb :: cap :: por :: memory :: columns ->
      check_workload ~cls ~pb:(int_of_string pb) ~cap:(int_of_string cap) ~por:(por = "1")
        ~memory columns
    | "shard", cls :: pb :: store_dir :: columns ->
      shard_workload ~cls ~pb:(int_of_string pb) ~store_dir columns
    | "random", seed :: rows :: cols :: samples :: cap :: classes ->
      random_workload ~seed:(int_of_string seed) ~rows:(int_of_string rows)
        ~cols:(int_of_string cols) ~samples:(int_of_string samples) ~cap:(int_of_string cap)
        classes
    | "monitor", files ->
      List.iter (fun (spec_name, path) -> monitor_stream ~spec_name path) (pairs files)
    | _ -> invalid_arg ("tracer.exe: bad arguments for mode " ^ mode)
  in
  let majors0 = (Gc.quick_stat ()).Gc.major_collections in
  with_span "workload" run;
  counti "gc.major_collections" ((Gc.quick_stat ()).Gc.major_collections - majors0);
  write_json out
