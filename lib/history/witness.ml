(* Position of each operation of [serial] in its linear order, keyed by
   (tid, per-thread index). A stuck pending call sits after all entries. *)
let serial_positions (serial : Serial_history.t) =
  let tbl : (int * int, int) Hashtbl.t = Hashtbl.create 16 in
  let per_thread : (int, int) Hashtbl.t = Hashtbl.create 7 in
  let next_index tid =
    let i = Option.value ~default:0 (Hashtbl.find_opt per_thread tid) in
    Hashtbl.replace per_thread tid (i + 1);
    i
  in
  List.iteri
    (fun pos (e : Serial_history.entry) ->
      Hashtbl.replace tbl (e.tid, next_index e.tid) pos)
    serial.entries;
  (match serial.stuck with
   | None -> ()
   | Some (tid, _) ->
     Hashtbl.replace tbl (tid, next_index tid) (List.length serial.entries));
  tbl

let is_witness ~serial h =
  let ops = History.ops h in
  (* Condition 2: identical thread subhistories (as operation sequences). *)
  Serial_history.thread_key_equal
    (Serial_history.thread_key serial)
    (Serial_history.ops_thread_key ops)
  &&
  (* Condition 3: <H ⊆ <S. *)
  let pos = serial_positions serial in
  List.for_all
    (fun (e1 : Op.t) ->
      List.for_all
        (fun (e2 : Op.t) ->
          if Op.precedes e1 e2 then
            Hashtbl.find pos (Op.key e1) < Hashtbl.find pos (Op.key e2)
          else true)
        ops)
    ops

let find_witness ~specs h = List.find_opt (fun serial -> is_witness ~serial h) specs

let linearizable_full ~specs h =
  if not (History.is_complete h) then
    invalid_arg "Witness.linearizable_full: history has pending operations";
  Option.is_some (find_witness ~specs h)

let linearizable_stuck ~specs h =
  if not (History.is_stuck h) then
    invalid_arg "Witness.linearizable_stuck: history is not stuck";
  let pending = History.pending_ops h in
  let justified e =
    let he = History.restrict_to_pending h e in
    Option.is_some (find_witness ~specs he)
  in
  match List.find_opt (fun e -> not (justified e)) pending with
  | None -> Ok ()
  | Some e -> Error e

(* ------------------------------------------------------------------ *)
(* Prepared search                                                     *)
(* ------------------------------------------------------------------ *)

(* The phase-2 form of the same check, tested against [is_witness]: the
   work that does not depend on the pair is done once per history and once
   per serial history instead of once per probe.

   Operation slots: the operations of a thread key are numbered thread by
   thread, in key order, so operation [i] of thread [tid] has slot
   [offset tid + i]. Histories with equal thread keys number their
   operations alike, which lets a history and a serial history of its key
   exchange slot indices without any per-operation lookup. *)
let slot_of (key : Serial_history.thread_key) =
  let offsets, _ =
    List.fold_left (fun (acc, n) (tid, ops) -> (tid, n) :: acc, n + List.length ops) ([], 0) key
  in
  fun tid i -> List.assoc tid offsets + i

type candidate = {
  serial : Serial_history.t;
  positions : int array;  (* slot -> position in the linear order *)
}

(* A stuck pending call sits after all entries. *)
let candidate (serial : Serial_history.t) =
  let key = Serial_history.thread_key serial in
  let slot = slot_of key in
  let next = List.map (fun (tid, _) -> tid, ref 0) key in
  let positions = Array.make (Serial_history.num_ops serial) 0 in
  let place pos tid =
    let i = List.assoc tid next in
    positions.(slot tid !i) <- pos;
    incr i
  in
  List.iteri (fun pos (e : Serial_history.entry) -> place pos e.tid) serial.entries;
  Option.iter (fun (tid, _) -> place (List.length serial.entries) tid) serial.stuck;
  { serial; positions }

let serial c = c.serial

type query = {
  key : Serial_history.thread_key;
  before : int array;  (* slot pairs [a; b]: operation a returns before b is called *)
}

let prepare h =
  let ops = History.ops h in
  let key = Serial_history.ops_thread_key ops in
  let slot = slot_of key in
  let slot_op (op : Op.t) = slot op.tid op.op_index in
  let pairs =
    List.concat_map
      (fun e1 ->
        List.concat_map
          (fun e2 -> if Op.precedes e1 e2 then [ slot_op e1; slot_op e2 ] else [])
          ops)
      ops
  in
  { key; before = Array.of_list pairs }

let key q = q.key

(* Condition 3 on slot positions. *)
let respects_order c q =
  let pos = c.positions and before = q.before in
  let rec go i =
    i >= Array.length before || (pos.(before.(i)) < pos.(before.(i + 1)) && go (i + 2))
  in
  go 0
