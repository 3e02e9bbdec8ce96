(** Serial-witness checking (Section 2.1.4).

    A serial history [S] is a witness for a history [H] when (1) [S] is
    serial, (2) [S|t = H|t] for every thread [t], and (3) [<H ⊆ <S]. This
    module implements the check for both full histories (Definition 1, with
    no pending operations) and stuck histories restricted to a single pending
    operation (Definition 2, the [H[e]] shape). *)

(** [is_witness ~serial h] decides whether [serial] is a serial witness for
    [h]. [h] may be a complete history (full-history check) or a stuck
    history with exactly one pending operation (the [H[e]] of Definition 2);
    histories with several pending operations never match, since a serial
    history has at most one pending call, in final position. *)
val is_witness : serial:Serial_history.t -> History.t -> bool

(** {2 Prepared search}

    A witness search probes many serial histories against one history.
    The pieces below do the per-history and per-serial-history work once:
    a {!query} holds the history's thread key and its real-time order, a
    {!candidate} the linear positions of a serial history's operations. *)

(** A serial history with the position of each of its operations. *)
type candidate

val candidate : Serial_history.t -> candidate
val serial : candidate -> Serial_history.t

(** A history prepared for a witness search. *)
type query

val prepare : History.t -> query

(** The thread key of the prepared history (see
    {!Serial_history.ops_thread_key}). *)
val key : query -> Serial_history.thread_key

(** [respects_order c q] checks condition 3 only. It is meaningful only
    when the thread keys of [c] and [q] are equal, for instance because
    [c] was found under [key q] in a {!Serial_history.Key_table}: then it
    holds exactly when [serial c] is a witness for the prepared history. *)
val respects_order : candidate -> query -> bool

(** [linearizable_full ~specs h] — Definition 1 for complete histories: some
    serial history in [specs] is a witness for [h]. *)
val linearizable_full : specs:Serial_history.t list -> History.t -> bool

(** [linearizable_stuck ~specs h] — Definition 2: for every pending operation
    [e] of the stuck history [h], [specs] contains a serial witness for
    [H[e]]. Returns [Ok ()] or [Error e] for the first unjustified pending
    operation. *)
val linearizable_stuck :
  specs:Serial_history.t list -> History.t -> (unit, Op.t) result

(** [find_witness ~specs h] returns some witness if one exists. *)
val find_witness : specs:Serial_history.t list -> History.t -> Serial_history.t option
