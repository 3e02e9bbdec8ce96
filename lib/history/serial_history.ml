module Value = Lineup_value.Value

type entry = {
  tid : int;
  inv : Invocation.t;
  resp : Value.t;
}

type t = {
  entries : entry list;
  stuck : (int * Invocation.t) option;
}

let make ?(stuck = None) entries = { entries; stuck }
let is_stuck s = Option.is_some s.stuck
let num_ops s = List.length s.entries + if is_stuck s then 1 else 0

let entry_equal e1 e2 =
  e1.tid = e2.tid && Invocation.equal e1.inv e2.inv && Value.equal e1.resp e2.resp

let entry_compare e1 e2 =
  let c = Int.compare e1.tid e2.tid in
  if c <> 0 then c
  else
    let c = Invocation.compare e1.inv e2.inv in
    if c <> 0 then c else Value.compare e1.resp e2.resp

let stuck_compare s1 s2 =
  match s1, s2 with
  | None, None -> 0
  | None, Some _ -> -1
  | Some _, None -> 1
  | Some (t1, i1), Some (t2, i2) ->
    let c = Int.compare t1 t2 in
    if c <> 0 then c else Invocation.compare i1 i2

let equal s1 s2 =
  List.equal entry_equal s1.entries s2.entries && stuck_compare s1.stuck s2.stuck = 0

let compare s1 s2 =
  let c = List.compare entry_compare s1.entries s2.entries in
  if c <> 0 then c else stuck_compare s1.stuck s2.stuck

let to_history s =
  let indices : (int, int) Hashtbl.t = Hashtbl.create 7 in
  let next_index tid =
    let i = Option.value ~default:0 (Hashtbl.find_opt indices tid) in
    Hashtbl.replace indices tid (i + 1);
    i
  in
  let events =
    List.concat_map
      (fun e ->
        let op_index = next_index e.tid in
        [ Event.call ~tid:e.tid ~op_index e.inv; Event.return ~tid:e.tid ~op_index e.resp ])
      s.entries
  in
  let events, stuck =
    match s.stuck with
    | None -> events, false
    | Some (tid, inv) ->
      let op_index = next_index tid in
      events @ [ Event.call ~tid ~op_index inv ], true
  in
  History.make ~stuck events

let of_history h =
  if not (History.is_serial h) then None
  else begin
    let rec go acc = function
      | [] -> Some { entries = List.rev acc; stuck = None }
      | [ ({ Event.dir = Event.Call inv; _ } as c) ] when History.is_stuck h ->
        Some { entries = List.rev acc; stuck = Some (c.Event.tid, inv) }
      | { Event.dir = Event.Call inv; Event.tid; _ }
        :: { Event.dir = Event.Return resp; _ }
        :: rest ->
        go ({ tid; inv; resp } :: acc) rest
      | _ -> None
    in
    go [] (History.events h)
  end

type thread_key = (int * (Invocation.t * Value.t option) list) list

(* Group [(tid, x)] items by thread, each thread's items in their original
   order, threads ascending. The one grouping behind both keys below, so a
   serial history and a concurrent one agree on a key by construction. *)
let group_by_thread items =
  let rec go acc = function
    | [] -> List.rev_map (fun (tid, xs) -> tid, List.rev xs) acc
    | (tid, x) :: rest -> (
      match acc with
      | (t, xs) :: acc' when t = tid -> go ((t, x :: xs) :: acc') rest
      | _ -> go ((tid, [ x ]) :: acc) rest)
  in
  go [] (List.stable_sort (fun (t1, _) (t2, _) -> Int.compare t1 t2) items)

let thread_key s =
  let stuck = match s.stuck with None -> [] | Some (tid, inv) -> [ tid, (inv, None) ] in
  group_by_thread (List.map (fun e -> e.tid, (e.inv, Some e.resp)) s.entries @ stuck)

let ops_thread_key ops =
  group_by_thread (List.map (fun (op : Op.t) -> op.tid, (op.inv, op.resp)) ops)

let thread_key_equal k1 k2 =
  List.equal
    (fun (t1, l1) (t2, l2) ->
      t1 = t2
      && List.equal
           (fun (i1, r1) (i2, r2) -> Invocation.equal i1 i2 && Option.equal Value.equal r1 r2)
           l1 l2)
    k1 k2

(* Keys are hashed at full depth: [Hashtbl.hash] reads only the first 10
   meaningful words, so keys of the same test sharing their first
   operations would share a bucket. *)
module Key_table = Hashtbl.Make (struct
  type t = thread_key

  let equal = thread_key_equal
  let hash (k : t) = Hashtbl.hash_param 256 256 k
end)

let nondeterministic_pair s1 s2 =
  (* Walk the completed-operation prefixes in parallel; report true exactly
     when the same thread issues the same invocation after an identical
     prefix but the continuations differ. *)
  let stuck_matches stuck (e : entry) =
    match stuck with
    | Some (tid, inv) -> tid = e.tid && Invocation.equal inv e.inv
    | None -> false
  in
  let rec go l1 l2 =
    match l1, l2 with
    | e1 :: r1, e2 :: r2 ->
      if entry_equal e1 e2 then go r1 r2
      else e1.tid = e2.tid && Invocation.equal e1.inv e2.inv
      (* same invocation, different response: prefix ends in that call *)
    | e1 :: _, [] -> stuck_matches s2.stuck e1 (* s2 blocks where s1 responds *)
    | [], e2 :: _ -> stuck_matches s1.stuck e2
    | [], [] -> (
      (* identical completed prefixes; compare the stuck tails *)
      match s1.stuck, s2.stuck with
      | Some (t1, i1), Some (t2, i2) ->
        (* both stuck at the same invocation: identical histories, fine;
           different invocations: prefix ends in a return, fine *)
        ignore (t1, i1, t2, i2);
        false
      | Some _, None | None, Some _ | None, None ->
        (* one ends (full) and one is stuck after the same prefix: the full
           one either ends here too (different tests cannot happen within one
           observation set) or continues with a different call *)
        false)
  in
  go s1.entries s2.entries

let pp ppf s =
  let pp_entry ppf e =
    Fmt.pf ppf "%s:%a/%a" (Event.thread_label e.tid) Invocation.pp e.inv Value.pp e.resp
  in
  Fmt.pf ppf "@[<h>%a%a@]"
    (Fmt.list ~sep:(Fmt.any " ") pp_entry)
    s.entries
    (fun ppf -> function
      | None -> ()
      | Some (tid, inv) ->
        Fmt.pf ppf " %s:%a/BLOCKED #" (Event.thread_label tid) Invocation.pp inv)
    s.stuck

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)
