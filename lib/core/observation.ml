module Value = Lineup_value.Value
module Invocation = Lineup_history.Invocation
module History = Lineup_history.History
module Serial_history = Lineup_history.Serial_history
module Witness = Lineup_history.Witness

(* ------------------------------------------------------------------ *)
(* Determinism trie                                                    *)
(* ------------------------------------------------------------------ *)

(* Nodes are reached by a common prefix of completed operations. At each
   node, each invocation (by thread) must have a unique continuation —
   either a unique response (with a child node) or "blocked". A second
   distinct continuation for the same invocation is exactly the paper's
   nondeterminism: two histories whose longest common prefix ends in a
   call. *)

type cont =
  | Responded of Value.t
  | Went_stuck

type node = { edges : (int * string, slot) Hashtbl.t }

and slot = {
  mutable cont : cont;
  mutable rep : Serial_history.t;  (* a representative history, for reports *)
  mutable child : node option;
}

let new_node () = { edges = Hashtbl.create 4 }

let edge_key tid (inv : Invocation.t) = tid, Invocation.to_string inv

let cont_equal c1 c2 =
  match c1, c2 with
  | Responded v1, Responded v2 -> Value.equal v1 v2
  | Went_stuck, Went_stuck -> true
  | (Responded _ | Went_stuck), _ -> false

(* Insert a serial history; return the nondeterminism witness pair if the
   trie already committed to a different continuation somewhere along it. *)
let trie_insert root (s : Serial_history.t) =
  let conflict = ref None in
  let visit node tid inv cont =
    let key = edge_key tid inv in
    match Hashtbl.find_opt node.edges key with
    | None ->
      let slot = { cont; rep = s; child = None } in
      Hashtbl.replace node.edges key slot;
      Some slot
    | Some slot ->
      if cont_equal slot.cont cont then Some slot
      else begin
        conflict := Some (slot.rep, s);
        None
      end
  in
  let rec go node = function
    | [] -> (
      match s.Serial_history.stuck with
      | None -> ()
      | Some (tid, inv) -> ignore (visit node tid inv Went_stuck))
    | (e : Serial_history.entry) :: rest -> (
      match visit node e.tid e.inv (Responded e.resp) with
      | None -> ()
      | Some slot ->
        let child =
          match slot.child with
          | Some c -> c
          | None ->
            let c = new_node () in
            slot.child <- Some c;
            c
        in
        go child rest)
  in
  go root s.Serial_history.entries;
  !conflict

(* ------------------------------------------------------------------ *)
(* Observation sets                                                    *)
(* ------------------------------------------------------------------ *)

module Key_table = Serial_history.Key_table

(* Serial histories indexed by thread key, each prepared as a witness
   candidate once, when it is added. Eagerly, not lazily: phase-2 domains
   share the observation read-only, and two domains forcing one lazy value
   at once would raise. Within a bucket the most recently added history
   comes first. [full_order]/[stuck_order] keep the histories newest first:
   an observation file lists them in insertion order, so a set rebuilt from
   the file probes its buckets in the same order as the original. *)
type t = {
  mutable full : Serial_history.Set.t;
  mutable stuck : Serial_history.Set.t;
  mutable full_order : Serial_history.t list;
  mutable stuck_order : Serial_history.t list;
  full_index : Witness.candidate list ref Key_table.t;
  stuck_index : Witness.candidate list ref Key_table.t;
  trie : node;
}

let create () =
  {
    full = Serial_history.Set.empty;
    stuck = Serial_history.Set.empty;
    full_order = [];
    stuck_order = [];
    full_index = Key_table.create 64;
    stuck_index = Key_table.create 16;
    trie = new_node ();
  }

let index_add index s =
  let key = Serial_history.thread_key s in
  let c = Witness.candidate s in
  match Key_table.find_opt index key with
  | Some l -> l := c :: !l
  | None -> Key_table.replace index key (ref [ c ])

let add obs s =
  let set = if Serial_history.is_stuck s then obs.stuck else obs.full in
  if Serial_history.Set.mem s set then Ok ()
  else begin
    if Serial_history.is_stuck s then begin
      obs.stuck <- Serial_history.Set.add s obs.stuck;
      obs.stuck_order <- s :: obs.stuck_order;
      index_add obs.stuck_index s
    end
    else begin
      obs.full <- Serial_history.Set.add s obs.full;
      obs.full_order <- s :: obs.full_order;
      index_add obs.full_index s
    end;
    match trie_insert obs.trie s with
    | None -> Ok ()
    | Some pair -> Error pair
  end

let num_full obs = Serial_history.Set.cardinal obs.full
let num_stuck obs = Serial_history.Set.cardinal obs.stuck
let full_histories obs = List.rev obs.full_order
let stuck_histories obs = List.rev obs.stuck_order

(* Every candidate in the bucket already has the history's thread key
   (condition 2), so a probe checks the real-time order alone. *)
let find_in ?probes index h =
  let q = Witness.prepare h in
  match Key_table.find_opt index (Witness.key q) with
  | None -> None
  | Some candidates ->
    List.find_map
      (fun c ->
        (match probes with Some p -> incr p | None -> ());
        if Witness.respects_order c q then Some (Witness.serial c) else None)
      !candidates

let find_witness_full ?probes obs h = find_in ?probes obs.full_index h
let find_witness_stuck ?probes obs he = find_in ?probes obs.stuck_index he

let linearizable_stuck ?probes obs h =
  let justified e =
    let he = History.restrict_to_pending h e in
    Option.is_some (find_witness_stuck ?probes obs he)
  in
  match List.find_opt (fun e -> not (justified e)) (History.pending_ops h) with
  | None -> Ok ()
  | Some e -> Error e
