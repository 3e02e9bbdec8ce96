open Helpers
module Value = Lineup_value.Value
module History = Lineup_history.History
module Serial_history = Lineup_history.Serial_history
open Lineup

let u = Value.Unit

let add_ok obs s =
  match Observation.add obs s with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "unexpected nondeterminism"

let suite =
  [
    test "add and count" (fun () ->
        let obs = Observation.create () in
        add_ok obs (serial [ 0, "Inc", u, Value.unit ]);
        add_ok obs (serial ~stuck:(0, "Dec", u) []);
        Alcotest.(check int) "full" 1 (Observation.num_full obs);
        Alcotest.(check int) "stuck" 1 (Observation.num_stuck obs));
    test "duplicates are ignored" (fun () ->
        let obs = Observation.create () in
        add_ok obs (serial [ 0, "Inc", u, Value.unit ]);
        add_ok obs (serial [ 0, "Inc", u, Value.unit ]);
        Alcotest.(check int) "full" 1 (Observation.num_full obs));
    test "nondeterminism detected on differing responses" (fun () ->
        let obs = Observation.create () in
        add_ok obs (serial [ 0, "Get", u, Value.int 0 ]);
        match Observation.add obs (serial [ 0, "Get", u, Value.int 1 ]) with
        | Error (s1, s2) ->
          Alcotest.(check bool) "pair differs" false (Serial_history.equal s1 s2)
        | Ok () -> Alcotest.fail "expected nondeterminism");
    test "nondeterminism detected on response vs stuck" (fun () ->
        let obs = Observation.create () in
        add_ok obs (serial [ 0, "Dec", u, Value.unit ]);
        match Observation.add obs (serial ~stuck:(0, "Dec", u) []) with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "expected nondeterminism");
    test "no false nondeterminism across different prefixes" (fun () ->
        let obs = Observation.create () in
        add_ok obs (serial [ 0, "Inc", u, Value.unit; 0, "Get", u, Value.int 1 ]);
        add_ok obs (serial [ 0, "Get", u, Value.int 0; 0, "Inc", u, Value.unit ]);
        add_ok obs (serial ~stuck:(1, "Dec", u) [ 0, "Get", u, Value.int 0 ]);
        Alcotest.(check int) "full" 2 (Observation.num_full obs));
    test "witness lookup finds matching group" (fun () ->
        let obs = Observation.create () in
        let s =
          serial [ 0, "Inc", u, Value.unit; 1, "Inc", u, Value.unit; 0, "Get", u, Value.int 2 ]
        in
        add_ok obs s;
        let h =
          history
            [
              call 0 0 "Inc" ();
              call 1 0 "Inc" ();
              ret 0 0 Value.unit;
              ret 1 0 Value.unit;
              call 0 1 "Get" ();
              ret 0 1 (Value.int 2);
            ]
        in
        Alcotest.(check (option serial_t)) "found" (Some s) (Observation.find_witness_full obs h));
    test "witness lookup respects real-time order" (fun () ->
        let obs = Observation.create () in
        (* only witness orders Get before B's Inc *)
        add_ok obs
          (serial [ 0, "Inc", u, Value.unit; 0, "Get", u, Value.int 1; 1, "Inc", u, Value.unit ]);
        (* but in H, B's Inc completes before Get starts *)
        let h =
          history
            [
              call 0 0 "Inc" ();
              ret 0 0 Value.unit;
              call 1 0 "Inc" ();
              ret 1 0 Value.unit;
              call 0 1 "Get" ();
              ret 0 1 (Value.int 1);
            ]
        in
        Alcotest.(check (option serial_t)) "no witness" None (Observation.find_witness_full obs h));
    test "stuck lookup goes through H[e]" (fun () ->
        let obs = Observation.create () in
        add_ok obs (serial ~stuck:(0, "Wait", u) []);
        add_ok obs (serial ~stuck:(1, "Wait", u) []);
        let h = history ~stuck:true [ call 0 0 "Wait" (); call 1 0 "Wait" () ] in
        Alcotest.(check bool) "both justified" true
          (Result.is_ok (Observation.linearizable_stuck obs h)));
    test "stuck lookup reports the unjustified op" (fun () ->
        let obs = Observation.create () in
        add_ok obs (serial ~stuck:(0, "Wait", u) []);
        let h =
          history ~stuck:true
            [ call 1 0 "Set" (); ret 1 0 Value.unit; call 0 0 "Wait" () ]
        in
        match Observation.linearizable_stuck obs h with
        | Error op -> Alcotest.(check int) "tid" 0 op.Lineup_history.Op.tid
        | Ok () -> Alcotest.fail "expected unjustified");
  ]

(* ---------------- prepared search vs the per-probe check ---------------- *)

(* A random history over 1-3 threads of 1-3 operations each, and serial
   histories of the same operations: some in an arbitrary order, some in
   the order of a random linearization point inside each operation's
   interval (witnesses by construction). All share the history's thread
   key, so they fill one bucket, most recent first. *)
let random_search rng =
  let threads = 1 + Random.State.int rng 3 in
  let thread_ops =
    Array.init threads (fun _ ->
        List.init
          (1 + Random.State.int rng 3)
          (fun _ ->
            ( (if Random.State.bool rng then "A" else "B"),
              Value.int (Random.State.int rng 3) )))
  in
  let next = Array.make threads 0 and in_flight = Array.make threads false in
  let events = ref [] in
  let live () =
    List.filter
      (fun t -> in_flight.(t) || next.(t) < List.length thread_ops.(t))
      (List.init threads Fun.id)
  in
  let rec walk () =
    match live () with
    | [] -> ()
    | ts ->
      let t = List.nth ts (Random.State.int rng (List.length ts)) in
      let name, resp = List.nth thread_ops.(t) next.(t) in
      if in_flight.(t) then begin
        events := ret t next.(t) resp :: !events;
        in_flight.(t) <- false;
        next.(t) <- next.(t) + 1
      end
      else begin
        events := call t next.(t) name () :: !events;
        in_flight.(t) <- true
      end;
      walk ()
  in
  walk ();
  let h = history (List.rev !events) in
  let ops = History.ops h in
  (* operations sorted by a point that increases along each thread *)
  let serial_of point =
    List.map (fun op -> point op, op) ops
    |> List.sort (fun (p1, _) (p2, _) -> Float.compare p1 p2)
    |> List.map (fun (_, (op : Lineup_history.Op.t)) ->
           { Serial_history.tid = op.tid; inv = op.inv; resp = Option.get op.resp })
    |> Serial_history.make
  in
  let arbitrary (op : Lineup_history.Op.t) =
    float_of_int op.op_index +. Random.State.float rng 1.0
  in
  let linearized (op : Lineup_history.Op.t) =
    let width = Option.get op.ret_pos - op.call_pos - 1 in
    float_of_int op.call_pos +. 0.5 +. Random.State.float rng (float_of_int width)
  in
  let serials =
    List.init (Random.State.int rng 7) (fun _ ->
        serial_of (if Random.State.bool rng then arbitrary else linearized))
  in
  h, serials

let seed_arb = QCheck.make QCheck.Gen.small_signed_int

let prepared_search_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"prepared search = find_opt over is_witness (witness and probes)"
         ~count:500 seed_arb (fun seed ->
           let rng = Random.State.make [| seed |] in
           let h, serials = random_search rng in
           let obs = Observation.create () in
           let bucket =
             List.fold_left
               (fun bucket s ->
                 add_ok obs s;
                 if List.exists (Serial_history.equal s) bucket then bucket else s :: bucket)
               [] serials
           in
           let probes = ref 0 in
           let got = Observation.find_witness_full ~probes obs h in
           let ref_probes = ref 0 in
           let want =
             List.find_opt
               (fun serial ->
                 incr ref_probes;
                 Lineup_history.Witness.is_witness ~serial h)
               bucket
           in
           Option.equal Serial_history.equal got want && !probes = !ref_probes));
  ]

let tests = suite @ prepared_search_props
