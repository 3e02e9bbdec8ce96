(** Observation sets — the synthesized sequential specification of phase 1.

    An observation set holds the full serial histories [A] and the stuck
    serial histories [B] recorded for one finite test (Fig. 5, lines 2–3),
    organized two ways:

    - an incremental {e determinism trie} detecting, as histories are added,
      any pair whose longest common prefix ends in a call (Fig. 5, line 4);
    - indexes keyed by per-thread operation sequences — the grouping of the
      observation-file format (Fig. 7) — so that the phase-2 witness search
      only examines serial histories whose thread subhistories already match
      the concurrent history. *)

type t

val create : unit -> t

(** [add obs s] inserts serial history [s] (full or stuck — determined by
    [Serial_history.is_stuck]). Duplicates are ignored. [Error (s1, s2)]
    reports nondeterminism: two recorded histories diverging right after a
    shared invocation prefix. *)
val add :
  t -> Lineup_history.Serial_history.t ->
  (unit, Lineup_history.Serial_history.t * Lineup_history.Serial_history.t) result

val num_full : t -> int
val num_stuck : t -> int

(** The full (resp. stuck) serial histories in the order they were first
    added. {!Observation_file} writes them in this order, so an observation
    set rebuilt from its file (a shard worker's, a cache hit's) examines
    witness candidates in the same order as the set it was written from. *)
val full_histories : t -> Lineup_history.Serial_history.t list

val stuck_histories : t -> Lineup_history.Serial_history.t list

(** [find_witness_full ?probes obs h] searches [A] for a serial witness of
    the complete history [h]. [probes], when given, is incremented once per
    candidate serial history examined — the witness-search work metric. *)
val find_witness_full :
  ?probes:int ref ->
  t -> Lineup_history.History.t -> Lineup_history.Serial_history.t option

(** [find_witness_stuck ?probes obs he] searches [B] for a serial witness of
    [he], which must be an [H[e]]-shaped stuck history (one pending
    operation). *)
val find_witness_stuck :
  ?probes:int ref ->
  t -> Lineup_history.History.t -> Lineup_history.Serial_history.t option

(** [linearizable_stuck ?probes obs h] applies Definition 2 to stuck history
    [h]: every pending operation [e] must have a witness for [H[e]] in
    [B]. *)
val linearizable_stuck :
  ?probes:int ref ->
  t -> Lineup_history.History.t -> (unit, Lineup_history.Op.t) result
