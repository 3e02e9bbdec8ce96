(** Serial histories — the shape produced by phase 1 of the Line-Up check.

    A serial history is a sequence of completed operations (call immediately
    followed by its return) optionally ending with a single pending
    invocation when the execution got stuck there (the paper's histories
    [H(o i t)#] of Section 2.3). *)

type entry = {
  tid : int;
  inv : Invocation.t;
  resp : Lineup_value.Value.t;
}

type t = {
  entries : entry list;
  stuck : (int * Invocation.t) option;
      (** [Some (t, i)] when the history ends with thread [t] blocked inside
          invocation [i]. *)
}

val make : ?stuck:(int * Invocation.t) option -> entry list -> t
val is_stuck : t -> bool
val num_ops : t -> int

val equal : t -> t -> bool
val compare : t -> t -> int

(** The event-level view of the serial history (a serial {!History.t}). *)
val to_history : t -> History.t

(** [of_history h] converts a serial history back; [None] if [h] is not
    serial (or is stuck with pending operations not in final position). *)
val of_history : History.t -> t option

(** Per-thread operation sequences: for each thread, its invocations in
    order, each with its response ([None] for a pending or blocked call).
    Threads sorted by id. This is the grouping key of the observation-file
    format (Fig. 7) and of the phase-2 witness search. *)
type thread_key = (int * (Invocation.t * Lineup_value.Value.t option) list) list

(** [thread_key s] is the thread key of [s]; its blocked final call, if any,
    has no response. *)
val thread_key : t -> thread_key

(** [ops_thread_key ops] is the thread key of a history with operations
    [ops] (as listed by {!History.ops}). A serial history and the concurrent
    history it witnesses have equal keys (condition 2 of the witness
    definition). *)
val ops_thread_key : Op.t list -> thread_key

val thread_key_equal : thread_key -> thread_key -> bool

(** Hash tables keyed by thread keys, hashed at full depth. *)
module Key_table : Hashtbl.S with type key = thread_key

(** [nondeterministic_pair s1 s2] decides whether the two serial histories
    witness nondeterminism (Section 2.1.2, extended to stuck histories in
    Section 2.3): their longest common prefix, viewed as event sequences,
    ends in a call. Equivalently, after an identical prefix of completed
    operations, the same thread issues the same invocation but the two
    histories continue differently (different responses, or one responds
    while the other blocks). *)
val nondeterministic_pair : t -> t -> bool

val pp : Format.formatter -> t -> unit

module Set : Set.S with type elt = t
