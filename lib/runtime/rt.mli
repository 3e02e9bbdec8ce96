(** The instrumented concurrency interface.

    Code under test is written against this module. Every shared-memory
    access and synchronization operation performs an effect, giving the
    scheduler (in [lineup_scheduler]) a point at which it may switch threads
    — exactly the instrumentation CHESS obtains by binary rewriting of .NET
    code. The effects are declared here; only the scheduler handles them.

    Scheduling-point discipline:
    - {!sched} with [Access _] precedes every shared read/write/RMW. The code
      between a scheduling point and the next one executes atomically.
    - {!sched} with [Boundary] is performed by the test harness before each
      operation call; in phase 1 (serial exploration) these are the only
      points where the scheduler switches threads.
    - {!sched} with [Return_boundary] is performed by the test harness just
      before recording an operation's return event. In concurrent mode it is
      a scheduling point like [Boundary] (CHESS schedules at the call/return
      markers themselves), which makes the event-emitting step visible to
      the partial-order reduction; in serial mode it is a no-op, so an
      operation runs atomically through its return and phase-1 histories
      stay serial.
    - {!sched} with [Fence] is a store-barrier point. Under the SC memory
      model it behaves like an ordinary [Boundary]; under TSO/PSO the
      scheduler holds the thread until its store buffers have drained (the
      flushes themselves are scheduler choices, so every drain interleaving
      is explored). {!Shared_var} read-modify-writes get the same draining
      treatment implicitly, which is what makes lock and condvar operations
      fencing.
    - {!block} suspends the thread until a wake predicate holds; blocked
      threads are disabled, not spinning, so deadlocks are detected exactly
      (Definition 2 of the paper needs this).
    - {!choose} is demonic choice, used to model timing-dependent outcomes
      such as lock-acquisition timeouts; the model checker explores every
      branch.
    - {!yield} marks a spin-loop iteration; the fair scheduler will not run
      the yielding thread again until another enabled thread has run (the
      fairness of Musuvathi & Qadeer 2008, which the paper relies on for
      spin-loop-based implementations).
    - {!spin_while} is a spin-wait whose iterations the scheduler can see
      whole: an iteration that only read, and whose reads are all still
      current when it ends, blocks the thread until one of them changes
      instead of yielding (spin-assume; Kokologiannakis, Ren & Vafeiadis,
      FMCAD 2021). *)

type sched_reason =
  | Boundary
  | Return_boundary
  | Fence
  | Access of {
      loc : int;
      loc_name : string;
      kind : Exec_ctx.access_kind;
      volatile : bool;
    }

(** The three points of a {!spin_while}: before the first iteration, after
    each iteration whose condition held, and after the condition failed. *)
type spin_point = Spin_enter | Spin_retry | Spin_exit

type _ Effect.t +=
  | Sched : sched_reason -> unit Effect.t
  | Block : (unit -> bool) * string * Footprint.t -> unit Effect.t
  | Choose : int * string -> int Effect.t
  | Yield : unit Effect.t
  | Spin : spin_point -> unit Effect.t

(** [sched r] performs a scheduling point and logs the access (if any). *)
val sched : sched_reason -> unit

(** [op_boundary ()] = [sched Boundary]. *)
val op_boundary : unit -> unit

(** [fence ()] = [sched Fence]: a full store barrier. A no-op under SC
    (beyond being a scheduling point); under TSO/PSO the calling thread does
    not proceed past it until every store it has buffered is globally
    visible. *)
val fence : unit -> unit

(** [block ?footprint ~wake what] suspends the calling thread until
    [wake ()] holds. If the predicate already holds, returns immediately
    (without a scheduling point). [wake] must be pure reads of shared state
    — it is evaluated by the scheduler and must not perform effects. [what]
    describes the awaited condition for reports.

    [footprint] describes the shared-state effect of the step the thread
    will execute once woken (e.g. re-checking and taking a lock is an [Rmw]
    of the lock's location); defaults to {!Footprint.unknown}, which the
    partial-order reduction treats as conflicting with everything. *)
val block : ?footprint:Footprint.t -> wake:(unit -> bool) -> string -> unit

(** [choose ?what n] demonically picks a value in [0 .. n-1]; the model
    checker explores all branches. *)
val choose : ?what:string -> int -> int

(** Spin-loop hint; see module description. *)
val yield : unit -> unit

(** [spin_while cond] re-runs [cond ()] from scratch until it returns
    [false]: the spin-wait [while cond () do yield () done], with each
    iteration visible to the scheduler as a unit.

    An iteration {e qualifies} when [cond] did nothing but read modelled
    shared state: shared reads and CASes that failed. A write, a CAS that
    succeeded (or any other read-modify-write, lock or condition-variable
    operation), a {!fence}, a {!choose}, a {!block} or an operation
    boundary disqualifies it. When a qualifying iteration ends and no
    location it read has received a new committed value since it read it,
    re-running it would read the same values and take the same steps, so
    the thread blocks instead of yielding; it wakes once one of those
    locations receives a new committed value (under TSO/PSO: a flush, not
    a buffered store). A spin-wait that can never end therefore ends its
    execution as a deadlock (a serial-stuck execution in serial mode), not
    as a step-budget divergence. Any other iteration yields as {!yield}
    does.

    Contract, beyond {!yield}'s: [cond] may depend only on modelled shared
    state (reads through {!Shared_var}, {!Var_array} or other
    instrumented objects) and on values fixed before the loop. A condition
    that also consults unmodelled state — a counter in a closure, a clock,
    [Random] — can change its answer without any modelled location
    changing, and blocking it would lose that behaviour: write such loops
    with {!yield}. Retry loops that write on every round (a CAS that loses
    a race, then a fresh attempt) gain nothing from [spin_while]: the lost
    CAS means a location read this round has changed. *)
val spin_while : (unit -> bool) -> unit

(** Id of the currently running thread (0-based test-thread index). *)
val self : unit -> int

(** [run_inline f] evaluates [f ()] servicing its effects synchronously:
    scheduling points are no-ops, [choose] always returns 0, and a [block]
    whose predicate is false raises [Failure]. Used to run object
    construction and pre-test initialization code outside the explorer. *)
val run_inline : (unit -> 'a) -> 'a
