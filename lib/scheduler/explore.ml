module Rt = Lineup_runtime.Rt
module Exec_ctx = Lineup_runtime.Exec_ctx
module Footprint = Lineup_runtime.Footprint
module Memory_model = Lineup_runtime.Memory_model

type mode = Concurrent | Serial

type config = {
  mode : mode;
  preemption_bound : int option;
  max_steps : int;
  max_executions : int option;
  por : bool;
  memory : Memory_model.t;
}

let default_config =
  {
    mode = Concurrent;
    preemption_bound = Some 2;
    max_steps = 50_000;
    max_executions = None;
    por = false;
    memory = Memory_model.Sc;
  }

let serial_config =
  {
    mode = Serial;
    preemption_bound = None;
    max_steps = 50_000;
    max_executions = None;
    por = false;
    memory = Memory_model.Sc;
  }

type exec_end =
  | All_finished
  | Deadlock of int list
  | Serial_stuck of int
  | Diverged

type exec_outcome = {
  exec_end : exec_end;
  steps : int;
  preemptions : int;
  yields : int;
  flushes : int;
  choice_points : int;
  errors : (int * exn) list;
  por_pruned : bool;
}

type stats = {
  executions : int;
  total_steps : int;
  deadlocks : int;
  divergences : int;
  serial_stucks : int;
  max_depth : int;
  pruned_choices : int;
  preemptions_spent : int;
  yields : int;
  choice_points : int;
  exact_bound_skips : int;
  sleep_set_skips : int;
  backtrack_points : int;
  flushes : int;
  complete : bool;
}

let pp_stats ppf s =
  Fmt.pf ppf
    "executions=%d steps=%d deadlocks=%d divergences=%d serial-stuck=%d max-depth=%d pruned=%d %s"
    s.executions s.total_steps s.deadlocks s.divergences s.serial_stucks s.max_depth
    s.pruned_choices
    (if s.complete then "(exhaustive)" else "(budget-cut)")

let empty_stats =
  {
    executions = 0;
    total_steps = 0;
    deadlocks = 0;
    divergences = 0;
    serial_stucks = 0;
    max_depth = 0;
    pruned_choices = 0;
    preemptions_spent = 0;
    yields = 0;
    choice_points = 0;
    exact_bound_skips = 0;
    sleep_set_skips = 0;
    backtrack_points = 0;
    flushes = 0;
    complete = true;
  }

let merge_stats a b =
  {
    executions = a.executions + b.executions;
    total_steps = a.total_steps + b.total_steps;
    deadlocks = a.deadlocks + b.deadlocks;
    divergences = a.divergences + b.divergences;
    serial_stucks = a.serial_stucks + b.serial_stucks;
    max_depth = max a.max_depth b.max_depth;
    pruned_choices = a.pruned_choices + b.pruned_choices;
    preemptions_spent = a.preemptions_spent + b.preemptions_spent;
    yields = a.yields + b.yields;
    choice_points = a.choice_points + b.choice_points;
    exact_bound_skips = a.exact_bound_skips + b.exact_bound_skips;
    sleep_set_skips = a.sleep_set_skips + b.sleep_set_skips;
    backtrack_points = a.backtrack_points + b.backtrack_points;
    flushes = a.flushes + b.flushes;
    complete = a.complete && b.complete;
  }

(* ------------------------------------------------------------------ *)
(* Decision traces                                                     *)
(* ------------------------------------------------------------------ *)

(* Decision records are shared between the replay prefix and the trace being
   built, so mutating them during backtracking persists into the next
   execution. A [Thread] decision is a full choice point: besides the chosen
   thread and its pending alternatives it carries the schedulable candidate
   set, the footprint of the executed step and the sleep-set bookkeeping the
   partial-order reduction maintains across siblings ([explored], [sleep]).
   Outside POR mode the extra fields are dead weight kept empty. *)
type decision =
  | Thread of {
      mutable chosen : int;
      mutable untried : int list;
      mutable explored : int list;  (** siblings already fully explored *)
      mutable sleep : int list;  (** sleep set on entry, refreshed on replay *)
      mutable candidates : int list;  (** all schedulable choices here *)
      mutable free : int list;  (** the non-preempting subset *)
      mutable fp : Footprint.t;  (** footprint of the executed step *)
      mutable sleep_ok : bool;
          (** may [chosen] enter sibling sleep sets once flipped past?
              Always under no bound; under a finite preemption bound only
              when [chosen] was a free choice whose step ended at a
              voluntary suspension (see the soundness note at {!por}). *)
      frozen : bool;  (** thawed frontier prefix: never backtracked *)
    }
  | Value of { mutable chosen : int; mutable untried : int list; arity : int }

let thread_decision chosen ~untried ~sleep ~candidates ~free =
  Thread
    {
      chosen;
      untried;
      explored = [];
      sleep;
      candidates;
      free;
      fp = Footprint.pure;
      sleep_ok = false;
      frozen = false;
    }

exception Killed

(* Raised by a POR decider when every schedulable choice is in the sleep
   set: the execution's continuation only re-interleaves independent steps
   already covered by an explored sibling subtree. The engine kills the
   execution and the driver does not report it. *)
exception Sleep_blocked

(* The per-execution decision callbacks. [free]/[costly] partition the
   schedulable threads: picking a costly one consumes a preemption.
   [pending t] is the access footprint of thread [t]'s next step (the
   suspension it would resume from). [note_end ~voluntary] is called by the
   engine right after each chosen step runs to its next suspension,
   reporting whether that suspension is voluntary — the reduction needs the
   end kind of a step to decide whether it may enter sleep sets under a
   preemption bound. *)
type decider = {
  decide_thread : free:int list -> costly:int list -> pending:(int -> Footprint.t) -> int;
  decide_value : arity:int -> int;
  note_end : voluntary:bool -> unit;
}

type thread_state =
  | Ready of { resume : unit -> unit; abort : unit -> unit; fp : Footprint.t }
  | Blocked of {
      wake : unit -> bool;
      what : string;
      resume : unit -> unit;
      abort : unit -> unit;
      fp : Footprint.t;
    }
  | Finished

(* ------------------------------------------------------------------ *)
(* Spin-assume                                                         *)
(* ------------------------------------------------------------------ *)

(* Per-thread state of {!Rt.spin_while} bodies. [reads] are the locations
   the current iteration read (recorded as each read step starts, so a
   commit that lands before the read is not mistaken for one after it);
   [stale] means the iteration can no longer block — it did something other
   than read, or a location it read has since received a new committed
   value — and, for a thread [waiting] at a spin-wait, that it may run
   again. [rmw] marks a body RMW step whose outcome ([Exec_ctx.take_failed_rmw])
   has not been read yet.

   Whether a thread is inside a body ([depth] > 0) is kept per thread, not
   per domain: a thread can be suspended in the middle of a body while
   other threads run. Nothing is recorded while no thread is inside a
   body, and the records are reused across the executions of a domain, so
   exploring code without spin-waits allocates nothing for them and pays
   one load of [spin_threads] per step. *)
type spinner = {
  mutable depth : int;  (** nesting depth of spin-wait bodies; 0 = outside *)
  mutable waiting : bool;
  mutable stale : bool;
  mutable reads : int list;
  mutable rmw : bool;
}

type spin_state = {
  mutable active : int;  (** threads of this domain inside a spin-wait body *)
  mutable spinners : spinner array;
}

let spin_key = Domain.DLS.new_key (fun () -> { active = 0; spinners = [||] })

(* Threads inside a spin-wait body, summed over all domains: the guard on
   every step, cheaper than reaching the domain's own [spin_state]. *)
let spin_threads = Atomic.make 0

let fresh_spinner () = { depth = 0; waiting = false; stale = false; reads = []; rmw = false }

(* Run when an execution ends, however it ends: threads killed inside a
   body leave their records behind. *)
let spin_reset () =
  if Atomic.get spin_threads > 0 then begin
    let sp = Domain.DLS.get spin_key in
    if sp.active > 0 then begin
      ignore (Atomic.fetch_and_add spin_threads (-sp.active));
      sp.active <- 0;
      Array.iter
        (fun s ->
          s.depth <- 0;
          s.waiting <- false;
          s.stale <- false;
          s.reads <- [];
          s.rmw <- false)
        sp.spinners
    end
  end

let spin_enter i =
  let sp = Domain.DLS.get spin_key in
  let have = Array.length sp.spinners in
  if i >= have then
    sp.spinners <-
      Array.init (i + 1) (fun j -> if j < have then sp.spinners.(j) else fresh_spinner ());
  let s = sp.spinners.(i) in
  if s.depth = 0 then begin
    sp.active <- sp.active + 1;
    Atomic.incr spin_threads;
    s.stale <- false;
    s.reads <- []
  end
  else
    (* a spin-wait nested in a body: the outer iteration waits, so it
       cannot be a stutter *)
    s.stale <- true;
  s.depth <- s.depth + 1

let spin_exit i =
  let sp = Domain.DLS.get spin_key in
  let s = sp.spinners.(i) in
  s.depth <- s.depth - 1;
  if s.depth = 0 then begin
    sp.active <- sp.active - 1;
    Atomic.decr spin_threads;
    s.reads <- [];
    s.rmw <- false
  end

(* Thread [i] did something inside a body that disqualifies the iteration
   (a choice, a block, or — in serial mode — a non-read access). *)
let spin_taint i =
  if Atomic.get spin_threads > 0 then begin
    let sp = Domain.DLS.get spin_key in
    if i < Array.length sp.spinners && sp.spinners.(i).depth > 0 then
      sp.spinners.(i).stale <- true
  end

(* A new committed value at [loc] ([None]: anywhere) invalidates every other
   spinner that read it. *)
let spin_commit sp ~by loc =
  Array.iteri
    (fun j s ->
      if j <> by && s.depth > 0 && not s.stale then
        match loc with
        | None -> s.stale <- true
        | Some l -> if List.mem l s.reads then s.stale <- true)
    sp.spinners

let spin_resolve_rmw s =
  if s.rmw then begin
    s.rmw <- false;
    if not (Exec_ctx.take_failed_rmw ()) then s.stale <- true
  end

(* Called as thread [i]'s step starts from [st], when some thread is inside
   a body. A step commits through the access it resumes into: an SC write
   or any RMW commits its location, a buffered write commits nothing until
   its flush. The explorer's own [Unknown] resumes — after a yield (always
   [Ready]) or a spin-wait — run no access before their next scheduling
   point; an [Unknown] [Rt.block] resume may do anything and invalidates
   every read set. *)
let spin_step_start i st =
  let sp = Domain.DLS.get spin_key in
  let fp, waking =
    match st with
    | Ready { fp; _ } -> fp, false
    | Blocked { fp; _ } -> fp, true
    | Finished -> Footprint.pure, false
  in
  (match fp with
   | Footprint.Access { loc; kind = Exec_ctx.Write } ->
     if Exec_ctx.memory () = Memory_model.Sc then spin_commit sp ~by:i (Some loc)
   | Footprint.Access { loc; kind = Exec_ctx.Rmw } -> spin_commit sp ~by:i (Some loc)
   | Footprint.Unknown ->
     if waking && not (i < Array.length sp.spinners && sp.spinners.(i).waiting) then
       spin_commit sp ~by:i None
   | Footprint.Access { kind = Exec_ctx.Read; _ } | Footprint.Pure | Footprint.Event -> ());
  if i < Array.length sp.spinners && sp.spinners.(i).depth > 0 then begin
    let s = sp.spinners.(i) in
    match fp with
    | Footprint.Access { loc; kind = Exec_ctx.Read } -> s.reads <- loc :: s.reads
    | Footprint.Access { loc; kind = Exec_ctx.Rmw } ->
      s.reads <- loc :: s.reads;
      ignore (Exec_ctx.take_failed_rmw ());
      s.rmw <- true
    | Footprint.Access { kind = Exec_ctx.Write; _ } | Footprint.Pure | Footprint.Event ->
      s.stale <- true
    | Footprint.Unknown -> ()
  end

(* Called before flush unit [u] commits its oldest store. *)
let spin_flush u =
  if Atomic.get spin_threads > 0 then
    spin_commit (Domain.DLS.get spin_key) ~by:(-1)
      (Option.map fst (Exec_ctx.flush_unit_pending u))

(* Called when thread [i]'s step has run: a body RMW's outcome is known. *)
let spin_step_end i =
  let sp = Domain.DLS.get spin_key in
  if i < Array.length sp.spinners then spin_resolve_rmw sp.spinners.(i)

(* ------------------------------------------------------------------ *)
(* One execution                                                       *)
(* ------------------------------------------------------------------ *)

let run_one cfg ~(decider : decider) ~pruned ~setup =
  Exec_ctx.reset ();
  let threads = Rt.run_inline setup in
  (* Weak memory is a concurrent-mode concept: phase 1's serial enumeration
     synthesizes the sequential specification, which is memory-model
     independent, so serial exploration always runs SC. The model is active
     only between here and the end of this execution — [Rt.run_inline]
     contexts (setup above, the final observer after we return) see SC. *)
  let memory = if cfg.mode = Serial then Memory_model.Sc else cfg.memory in
  Exec_ctx.set_memory memory;
  Fun.protect
    ~finally:(fun () ->
      Exec_ctx.set_memory Memory_model.Sc;
      spin_reset ())
  @@ fun () ->
  let n = Array.length threads in
  let status = Array.make n Finished in
  let yielded = Array.make n false in
  let last_running = ref None in
  let last_voluntary = ref true in
  let preemptions = ref 0 in
  let steps = ref 0 in
  let yields = ref 0 in
  let flushes = ref 0 in
  let choice_points = ref 0 in
  let errors = ref [] in
  let killing = ref false in
  let open Effect.Deep in
  let handler i =
    (* [fp] is the footprint of the step the thread will execute when next
       resumed: the access it suspends at. Boundary steps emit call/return
       events (event order is the history, so they never commute); yield
       steps interact with the fairness state and are kept opaque. *)
    let suspend ~voluntary ~fp k =
      status.(i) <-
        Ready { resume = (fun () -> continue k ()); abort = (fun () -> discontinue k Killed); fp };
      last_voluntary := voluntary
    in
    (* A drain obligation: the thread may not take its next step until its
       store buffers have emptied (via scheduler-chosen flushes). Used at
       RMWs, fences and operation-return markers under TSO/PSO; the blocked
       thread's pending footprint is that of the step it resumes into. *)
    let suspend_drain ~what ~fp k =
      status.(i) <-
        Blocked
          {
            wake = (fun () -> Exec_ctx.buffer_empty i);
            what;
            resume = (fun () -> continue k ());
            abort = (fun () -> discontinue k Killed);
            fp;
          };
      last_voluntary := true
    in
    {
      retc =
        (fun () ->
          status.(i) <- Finished;
          last_voluntary := true);
      exnc =
        (fun e ->
          status.(i) <- Finished;
          last_voluntary := true;
          match e with Killed -> () | e -> errors := (i, e) :: !errors);
      effc =
        (fun (type b) (eff : b Effect.t) ->
          match eff with
          | Rt.Sched reason ->
            Some
              (fun (k : (b, unit) continuation) ->
                if !killing then continue k ()
                else begin
                  match reason, cfg.mode with
                  | Rt.Access { kind = Exec_ctx.Read; _ }, Serial -> continue k ()
                  | (Rt.Access _ | Rt.Return_boundary | Rt.Fence), Serial ->
                    (* no mid-operation scheduling in serial mode; an
                       operation runs atomically through its return *)
                    spin_taint i;
                    continue k ()
                  | Rt.Access a, Concurrent ->
                    let fp = Footprint.access ~loc:a.loc ~kind:a.kind in
                    if
                      a.kind = Exec_ctx.Rmw
                      && memory <> Memory_model.Sc
                      && not (Exec_ctx.buffer_empty i)
                    then suspend_drain ~what:"store-buffer drain (rmw)" ~fp k
                    else suspend ~voluntary:false ~fp k
                  | Rt.Return_boundary, Concurrent ->
                    (* Drain-at-return: an operation's return event becomes
                       visible only once its stores are globally visible, so
                       histories stay complete and the final observer reads
                       fully flushed memory. *)
                    if memory <> Memory_model.Sc && not (Exec_ctx.buffer_empty i) then
                      suspend_drain ~what:"store-buffer drain (return)" ~fp:Footprint.event k
                    else suspend ~voluntary:true ~fp:Footprint.event k
                  | Rt.Fence, Concurrent ->
                    if memory <> Memory_model.Sc && not (Exec_ctx.buffer_empty i) then
                      suspend_drain ~what:"store-buffer drain (fence)" ~fp:Footprint.pure k
                    else suspend ~voluntary:true ~fp:Footprint.pure k
                  | Rt.Boundary, Concurrent -> suspend ~voluntary:true ~fp:Footprint.event k
                  | Rt.Boundary, Serial -> suspend ~voluntary:true ~fp:Footprint.event k
                end)
          | Rt.Block (wake, what, fp) ->
            Some
              (fun (k : (b, unit) continuation) ->
                if !killing then discontinue k Killed
                else begin
                  spin_taint i;
                  status.(i) <-
                    Blocked
                      {
                        wake;
                        what;
                        resume = (fun () -> continue k ());
                        abort = (fun () -> discontinue k Killed);
                        fp;
                      };
                  last_voluntary := true
                end)
          | Rt.Yield ->
            Some
              (fun (k : (b, unit) continuation) ->
                if !killing then continue k ()
                else begin
                  match cfg.mode with
                  | Serial ->
                    (* no mid-operation scheduling in serial mode; spin
                       loops that genuinely wait on another thread hit the
                       step budget and classify as stuck *)
                    continue k ()
                  | Concurrent ->
                    yielded.(i) <- true;
                    incr yields;
                    suspend ~voluntary:true ~fp:Footprint.unknown k
                end)
          | Rt.Choose (arity, _) ->
            Some
              (fun (k : (b, unit) continuation) ->
                if !killing then continue k 0
                else begin
                  spin_taint i;
                  continue k (decider.decide_value ~arity)
                end)
          | Rt.Spin point ->
            Some
              (fun (k : (b, unit) continuation) ->
                match point with
                | Rt.Spin_enter ->
                  if not !killing then spin_enter i;
                  continue k ()
                | Rt.Spin_exit ->
                  if not !killing then spin_exit i;
                  continue k ()
                | Rt.Spin_retry when !killing -> discontinue k Killed
                | Rt.Spin_retry ->
                  let s = (Domain.DLS.get spin_key).spinners.(i) in
                  spin_resolve_rmw s;
                  if cfg.mode = Concurrent then incr yields;
                  if s.stale || s.depth > 1 then begin
                    (* An ordinary spin-loop iteration: it wrote, or saw a
                       value change under it, or it is a spin-wait nested
                       in another body (whose iteration stays
                       disqualified). *)
                    if s.depth = 1 then begin
                      s.stale <- false;
                      s.reads <- []
                    end;
                    match cfg.mode with
                    | Serial -> continue k ()
                    | Concurrent ->
                      yielded.(i) <- true;
                      suspend ~voluntary:true ~fp:Footprint.unknown k
                  end
                  else begin
                    (* Spin-assume: re-running the iteration now would read
                       the same values and take the same steps. Wait until
                       one of them changes; the resume starts a fresh
                       iteration. In serial mode nothing else runs inside an
                       operation, so this is a serial-stuck execution. *)
                    s.waiting <- true;
                    status.(i) <-
                      Blocked
                        {
                          wake = (fun () -> s.stale);
                          what = "spin-wait";
                          resume =
                            (fun () ->
                              s.waiting <- false;
                              s.stale <- false;
                              s.reads <- [];
                              continue k ());
                          abort = (fun () -> discontinue k Killed);
                          fp = Footprint.unknown;
                        };
                    last_voluntary := true
                  end)
          | _ -> None);
    }
  in
  Array.iteri
    (fun i body ->
      status.(i) <-
        Ready
          {
            resume = (fun () -> match_with body () (handler i));
            abort = (fun () -> status.(i) <- Finished);
            fp = Footprint.pure;
          })
    threads;
  let kill_all () =
    killing := true;
    Array.iter
      (fun st ->
        match st with
        | Ready { abort; _ } | Blocked { abort; _ } -> abort ()
        | Finished -> ())
      status
  in
  (* Wake predicates read shared state on behalf of the blocked thread;
     under weak memory {!Shared_var.peek} forwards from the current thread's
     store buffer, so the predicate must be evaluated with the blocked
     thread's identity installed (satellite of the peek/poke audit: a
     predicate must never observe another thread's un-flushed stores). *)
  let wake_holds i wake =
    let saved = Exec_ctx.current_tid () in
    Exec_ctx.set_current_tid i;
    let w = wake () in
    Exec_ctx.set_current_tid saved;
    w
  in
  (* Schedulable ids: real threads [0, n) plus one virtual flusher [n + u]
     per non-empty flush unit [u]. Flush ids flow through decisions, sleep
     sets and prefix serialization exactly like thread ids; unit indices are
     registration-ordered, hence deterministic across replays. *)
  let enabled_threads () =
    let acc = ref [] in
    if memory <> Memory_model.Sc then
      for u = Exec_ctx.flush_unit_count () - 1 downto 0 do
        if Option.is_some (Exec_ctx.flush_unit_pending u) then acc := (n + u) :: !acc
      done;
    for i = n - 1 downto 0 do
      match status.(i) with
      | Ready _ -> acc := i :: !acc
      | Blocked { wake; _ } -> if wake_holds i wake then acc := i :: !acc
      | Finished -> ()
    done;
    !acc
  in
  let blocked_threads () =
    let acc = ref [] in
    for i = n - 1 downto 0 do
      match status.(i) with
      | Blocked _ -> acc := i :: !acc
      | Ready _ | Finished -> ()
    done;
    !acc
  in
  let pending t =
    if t >= n then
      (* A flusher's next step commits its unit's oldest store: a write to
         that store's location, which is what makes flush choices ordinary
         conflicting choices for the reduction. *)
      match Exec_ctx.flush_unit_pending (t - n) with
      | Some (loc, _) -> Footprint.access ~loc ~kind:Exec_ctx.Write
      | None -> Footprint.pure
    else
      match status.(t) with
      | Ready { fp; _ } | Blocked { fp; _ } -> fp
      | Finished -> Footprint.pure
  in
  let resume_thread i =
    match status.(i) with
    | Ready { resume; _ } | Blocked { resume; _ } ->
      Exec_ctx.set_current_tid i;
      resume ()
    | Finished -> assert false
  in
  (* Start fusion: run each thread to its first suspension point, in thread
     order, before any scheduling decision. Sound because every modeled
     shared access performs its scheduling effect first — the prefix before
     a thread's first suspension cannot touch modeled shared state, so its
     position in the interleaving is irrelevant. (Value choices encountered
     in the prefix remain decision points.) *)
  let prerun_blocked = ref None in
  Array.iteri
    (fun i st ->
      match st with
      | Ready { resume; _ } ->
        Exec_ctx.set_current_tid i;
        resume ();
        if cfg.mode = Serial && Option.is_none !prerun_blocked then begin
          match status.(i) with
          | Blocked { wake; _ } when not (wake ()) -> prerun_blocked := Some i
          | Blocked _ | Ready _ | Finished -> ()
        end
      | Blocked _ | Finished -> ())
    status;
  let por_blocked = ref false in
  let rec loop () =
    if Option.is_some !prerun_blocked then begin
      kill_all ();
      Serial_stuck (Option.get !prerun_blocked)
    end
    else if !steps >= cfg.max_steps then begin
      kill_all ();
      Diverged
    end
    else begin
      let enabled = enabled_threads () in
      match enabled with
      | [] ->
        if Array.for_all (function Finished -> true | Ready _ | Blocked _ -> false) status
        then All_finished
        else begin
          let blocked = blocked_threads () in
          kill_all ();
          Deadlock blocked
        end
      | _ :: _ ->
        (* Fairness: don't reschedule a yielded thread while a non-yielded
           thread is enabled. Flushers (ids >= n) never yield. *)
        let candidates =
          match List.filter (fun i -> i >= n || not yielded.(i)) enabled with
          | [] -> enabled
          | non_yielded -> non_yielded
        in
        (* Partition into free and costly (preempting) choices. Flush
           choices are always free: a flush runs no thread, so it neither
           preempts the interrupted thread nor perturbs the preemption
           accounting around it ([last_running]/[last_voluntary] are left
           untouched when a flusher is chosen) — flush placement is explored
           exhaustively at every preemption bound. *)
        let free, costly =
          if !last_voluntary then candidates, []
          else begin
            match !last_running with
            | Some t when List.mem t candidates ->
              ( List.filter (fun c -> c = t || c >= n) candidates,
                List.filter (fun c -> c <> t && c < n) candidates )
            | Some _ | None -> candidates, []
          end
        in
        let free, costly =
          match cfg.preemption_bound with
          | Some bound when !preemptions >= bound ->
            pruned := !pruned + List.length costly;
            free, []
          | Some _ | None -> free, costly
        in
        (* A genuine scheduling decision: more than one continuation was
           schedulable. Counted outside the decider so replayed prefixes and
           fresh decisions weigh the same. *)
        if List.compare_length_with free 1 > 0 || costly <> [] then incr choice_points;
        match decider.decide_thread ~free ~costly ~pending with
        | exception Sleep_blocked ->
          (* The reduction proved the continuation redundant; abandon the
             execution. The driver counts it and drops its history. *)
          por_blocked := true;
          kill_all ();
          All_finished
        | chosen when chosen >= n ->
          (* A flush step: commit the unit's oldest buffered store. It is a
             step for fairness (spinning threads get to re-run after it) but
             is transparent to preemption accounting. Its end is voluntary
             for the reduction's cost argument: a flush can move to any
             position without changing the cost of any context switch. *)
          if not (List.mem chosen free) then
            Fmt.invalid_arg "Explore: replayed decision chose unschedulable flusher %d" chosen;
          Array.iteri (fun j flag -> if flag then yielded.(j) <- false) yielded;
          incr steps;
          incr flushes;
          spin_flush (chosen - n);
          Exec_ctx.flush_one (chosen - n);
          decider.note_end ~voluntary:true;
          loop ()
        | chosen ->
          if not (List.mem chosen free || List.mem chosen costly) then
            Fmt.invalid_arg "Explore: replayed decision chose unschedulable thread %d" chosen;
          if List.mem chosen costly then incr preemptions;
          Array.iteri (fun j flag -> if flag && j <> chosen then yielded.(j) <- false) yielded;
          incr steps;
          let spinning = Atomic.get spin_threads > 0 in
          if spinning then spin_step_start chosen status.(chosen);
          resume_thread chosen;
          if spinning then spin_step_end chosen;
          decider.note_end ~voluntary:!last_voluntary;
          if
            cfg.mode = Serial
            && (match status.(chosen) with Blocked { wake; _ } -> not (wake ()) | _ -> false)
          then begin
            kill_all ();
            Serial_stuck chosen
          end
          else begin
            last_running := Some chosen;
            loop ()
          end
    end
  in
  let exec_end = loop () in
  {
    exec_end;
    steps = !steps;
    preemptions = !preemptions;
    yields = !yields;
    flushes = !flushes;
    choice_points = !choice_points;
    errors = List.rev !errors;
    por_pruned = !por_blocked;
  }

(* ------------------------------------------------------------------ *)
(* Dynamic partial-order reduction (sleep sets + backtrack sets)       *)
(* ------------------------------------------------------------------ *)

(* Per-execution reduction state. [path] is the executed steps of the
   current execution, newest first, each carrying the thread, the step's
   footprint and the decision record it was chosen at — the substrate of
   the last-conflicting-access analysis. [sleep] is the current sleep set:
   threads whose pending step commutes with everything executed since an
   explored sibling covered them. [backtracks] survives the execution (it
   accumulates into the run statistics).

   Soundness under a preemption bound. Classic DPOR (lazy backtrack sets)
   and classic sleep sets both justify pruning by commuting independent
   steps: the pruned execution has a Mazurkiewicz-equivalent witness in an
   explored sibling subtree. Under a finite preemption bound that argument
   breaks, because commuting adjacent steps can shift which context
   switches count as preemptions — the witness may cost more than the
   bound even though the pruned execution did not, so the "covered"
   behavior is in fact never explored (observable as lost histories).

   The bounded mode therefore branches eagerly (every schedulable
   alternative is an untried sibling, exactly like the unreduced explorer)
   and takes its reduction from sleep sets alone, with a cost-aware
   admission rule: an explored sibling [x] may enter the sleep set only if
   (a) [x] was a free (non-preempting) choice at its node and (b) [x]'s
   step ends at a voluntary suspension. Under (a) and (b), moving [x] from
   any later position of a pruned execution to the front costs no extra
   preemption at any prefix: (a) makes the switch into [x] free, (b) makes
   the switch out of [x] free, and the bridged transition where [x] was
   removed can only get cheaper (the step before it keeps its end kind and
   [x] ran on a different thread). So the commuted witness respects the
   same budget and the sibling subtree really contains it. Steps end
   deterministically (same state, same step), so (b) — observed when the
   sibling executed — is a property of the node, not of one execution.

   Without a bound every schedule is affordable, the cost argument is
   vacuous, and the full lazy DPOR (persistent/backtrack sets + unrestricted
   sleep sets) applies. *)
type por = {
  bounded : bool;
  mutable path : (int * Footprint.t * decision) list;
  mutable sleep : int list;
  backtracks : int ref;
}

let por_fresh ~bounded ~backtracks = { bounded; path = []; sleep = []; backtracks }

(* Request that sibling [q] be explored at decision [d]. No-op on frozen
   (frontier-prefix) records — their siblings are other partitions — and on
   choices already chosen, explored, pending or asleep at [d]. *)
let por_request por d q =
  match d with
  | Thread t when not t.frozen ->
    if
      q <> t.chosen
      && (not (List.mem q t.explored))
      && (not (List.mem q t.untried))
      && not (List.mem q t.sleep)
    then begin
      t.untried <- t.untried @ [ q ];
      incr por.backtracks
    end
  | Thread _ | Value _ -> ()

(* The dynamic backtrack-set computation, run at every scheduling point for
   every schedulable candidate [q]: find the most recent executed step of a
   different thread whose footprint conflicts with [q]'s pending step, and
   request [q] (or, if [q] was not schedulable there, every choice that
   was) at that point. Only used without a preemption bound — the bounded
   mode branches eagerly and reduces with sleep sets alone (see {!por}). *)
let por_analyze por ~candidates ~pending =
  List.iter
    (fun q ->
      let fq = pending q in
      let rec scan = function
        | [] -> ()
        | (t', fp', d') :: rest ->
          if t' <> q && Footprint.conflicts fp' fq then begin
            match d' with
            | Thread t when not t.frozen ->
              if List.mem q t.candidates then por_request por d' q
              else List.iter (fun c -> por_request por d' c) t.candidates
            | Thread _ | Value _ -> ()
          end
          else scan rest
      in
      scan por.path)
    candidates

(* Commit the choice of [c] at decision [d]: record the executed step's
   footprint, push it on the path, and propagate the sleep set — explored
   siblings join it, and every member whose pending step conflicts with the
   chosen step wakes up. *)
let por_after_choice por d ~pending c =
  let fc = pending c in
  (match d with
   | Thread t -> t.fp <- fc
   | Value _ -> ());
  let seed = match d with Thread t -> t.explored @ por.sleep | Value _ -> por.sleep in
  por.sleep <-
    List.sort_uniq compare
      (List.filter (fun t -> t <> c && not (Footprint.conflicts (pending t) fc)) seed);
  por.path <- (c, fc, d) :: por.path

(* ------------------------------------------------------------------ *)
(* Depth-first systematic exploration with backtracking                *)
(* ------------------------------------------------------------------ *)

(* Builds the decider used for one DFS execution: consume the replay prefix,
   then make fresh decisions (preferring to continue the last-running thread)
   while recording untried alternatives. With [?por] the decider runs the
   reduction: without a preemption bound, fresh decisions start with lazy
   backtrack sets instead of all alternatives; under a finite bound they
   branch eagerly and only the cost-aware sleep sets prune (see {!por}).
   Either way sleeping candidates are never chosen, and a point whose every
   candidate sleeps raises {!Sleep_blocked}. *)
let dfs_decider ?por ~replay ~trace ~last_running () =
  let replay_left = ref replay in
  let pop_replayed () =
    match !replay_left with
    | [] -> None
    | d :: rest ->
      replay_left := rest;
      Some d
  in
  let record d = trace := d :: !trace in
  let decide_thread ~free ~costly ~pending =
    match pop_replayed () with
    | Some (Thread t as d) ->
      record d;
      (match por with
       | Some p ->
         if not t.frozen then begin
           let candidates = free @ costly in
           if not p.bounded then por_analyze p ~candidates ~pending;
           (* Refresh the path-determined bookkeeping: the candidate sets
              are deterministic under replay, the entry sleep set is not
              stored across executions but recomputed along the path. *)
           t.candidates <- candidates;
           t.free <- free;
           t.sleep <- p.sleep;
           t.sleep_ok <- (not p.bounded) || List.mem t.chosen free
         end;
         por_after_choice p d ~pending t.chosen
       | None -> ());
      t.chosen
    | Some (Value _) -> invalid_arg "Explore: replay mismatch (expected thread decision)"
    | None ->
      let all = free @ costly in
      (match por with
       | None ->
         let chosen =
           match !last_running with
           | Some t when List.mem t all -> t
           | _ -> List.fold_left min (List.hd all) all
         in
         let untried = List.filter (fun c -> c <> chosen) all in
         record (thread_decision chosen ~untried ~sleep:[] ~candidates:all ~free);
         chosen
       | Some p ->
         if not p.bounded then por_analyze p ~candidates:all ~pending;
         let sleep = p.sleep in
         let awake = List.filter (fun c -> not (List.mem c sleep)) all in
         (match awake with
          | [] -> raise Sleep_blocked
          | _ :: _ ->
            let chosen =
              match !last_running with
              | Some t when List.mem t awake -> t
              | _ -> List.fold_left min (List.hd awake) awake
            in
            (* Lazy backtracking is only sound without a preemption bound;
               under a bound every alternative is eager (like the unreduced
               explorer) and the cost-aware sleep sets do the pruning. *)
            let untried =
              if p.bounded then List.filter (fun c -> c <> chosen && not (List.mem c sleep)) all
              else []
            in
            let d = thread_decision chosen ~untried ~sleep ~candidates:all ~free in
            record d;
            (match d with
             | Thread t -> t.sleep_ok <- (not p.bounded) || List.mem chosen free
             | Value _ -> ());
            por_after_choice p d ~pending chosen;
            chosen))
  in
  let decide_value ~arity =
    match pop_replayed () with
    | Some (Value v as d) ->
      if v.arity <> arity then invalid_arg "Explore: replay mismatch (choice arity)";
      record d;
      v.chosen
    | Some (Thread _) -> invalid_arg "Explore: replay mismatch (expected value decision)"
    | None ->
      let d = Value { chosen = 0; untried = List.init (arity - 1) (fun i -> i + 1); arity } in
      record d;
      0
  in
  (* Observe each step's end kind as it suspends: under a bound, a chosen
     step that ends involuntarily loses its sleep eligibility (condition (b)
     of the cost argument at {!por}). The head of the path is the decision
     whose step just ran. *)
  let note_end ~voluntary =
    match por with
    | Some p when p.bounded -> (
      match p.path with
      | (_, _, Thread t) :: _ -> t.sleep_ok <- t.sleep_ok && voluntary
      | (_, _, Value _) :: _ | [] -> ())
    | Some _ | None -> ()
  in
  { decide_thread; decide_value; note_end }

(* Find the deepest decision with an untried alternative, mutate it to take
   that alternative, and return the new replay prefix (in execution order).
   Alternatives that entered the sleep set after they were requested are
   dropped — their subtrees were covered by a sibling in the meantime. *)
let next_prefix trace_rev =
  let rec go = function
    | [] -> None
    | d :: rest -> (
      match d with
      | Thread t -> (
        let rec pick = function
          | [] -> None
          | x :: xs when List.mem x t.sleep -> pick xs
          | x :: xs -> Some (x, xs)
        in
        match pick t.untried with
        | None ->
          t.untried <- [];
          go rest
        | Some (x, xs) ->
          if t.sleep_ok then t.explored <- t.chosen :: t.explored;
          t.sleep_ok <- false;
          t.chosen <- x;
          t.untried <- xs;
          Some (List.rev (d :: rest)))
      | Value v -> (
        match v.untried with
        | [] -> go rest
        | x :: xs ->
          v.chosen <- x;
          v.untried <- xs;
          Some (List.rev (d :: rest))))
  in
  go trace_rev

let exec_end_label = function
  | All_finished -> "finished"
  | Deadlock _ -> "deadlock"
  | Serial_stuck _ -> "serial-stuck"
  | Diverged -> "diverged"

(* One trace event per completed execution — granular enough to reconstruct
   the exploration timeline, coarse enough not to matter on hot paths (a
   single atomic load when tracing is off). *)
let trace_execution ~kind ~depth (o : exec_outcome) =
  if Lineup_observe.Trace.enabled () then
    Lineup_observe.Trace.emit "explore.execution"
      ([
         "kind", Lineup_observe.Trace.Str kind;
         "end", Lineup_observe.Trace.Str (exec_end_label o.exec_end);
         "steps", Lineup_observe.Trace.Int o.steps;
         "preemptions", Lineup_observe.Trace.Int o.preemptions;
         "yields", Lineup_observe.Trace.Int o.yields;
         "choice_points", Lineup_observe.Trace.Int o.choice_points;
         "depth", Lineup_observe.Trace.Int depth;
       ]
      @ (if o.flushes > 0 then [ "flushes", Lineup_observe.Trace.Int o.flushes ] else []))

let never_filtered (_ : exec_outcome) = true

(* The general DFS driver: start replaying from [replay0] (its decisions
   must carry empty [untried] lists when they are meant to stay frozen, as
   {!explore_from}'s thawed prefixes do) and enumerate the subtree below.

   [admit] is the hoisted admission filter: an execution it rejects is
   counted in [exact_bound_skips] and never reaches [on_execution] — the
   caller's per-execution work (history construction, checking) is skipped
   entirely, not merely discarded post-hoc.

   POR runs in concurrent mode only: phase 1's serial enumeration is the
   completeness-critical synthesis of the sequential specification (§4.3),
   and every serial interleaving is a distinct history by construction, so
   there is nothing sound to reduce there. *)
let explore_replay cfg ?(admit = never_filtered) ~replay0 ~setup ~on_execution () =
  let por_on = cfg.por && cfg.mode = Concurrent in
  let executions = ref 0 in
  let total_steps = ref 0 in
  let deadlocks = ref 0 in
  let divergences = ref 0 in
  let serial_stucks = ref 0 in
  let max_depth = ref 0 in
  let pruned = ref 0 in
  let preempt_spent = ref 0 in
  let yields = ref 0 in
  let choice_points = ref 0 in
  let skips = ref 0 in
  let sleep_blocked = ref 0 in
  let flushes = ref 0 in
  let backtracks = ref 0 in
  let complete = ref true in
  let replay = ref replay0 in
  let continue_ = ref true in
  while !continue_ do
    (* [last_running] mirrors the engine's notion for the decider's
       continue-current preference; the engine exposes it implicitly through
       decision order, so we track it via a shared cell updated by a wrapper. *)
    let trace = ref [] in
    let last_running = ref None in
    let por =
      if por_on then
        Some (por_fresh ~bounded:(Option.is_some cfg.preemption_bound) ~backtracks)
      else None
    in
    let base = dfs_decider ?por ~replay:!replay ~trace ~last_running () in
    let decider =
      {
        base with
        decide_thread =
          (fun ~free ~costly ~pending ->
            let c = base.decide_thread ~free ~costly ~pending in
            last_running := Some c;
            c);
      }
    in
    let outcome = run_one cfg ~decider ~pruned ~setup in
    total_steps := !total_steps + outcome.steps;
    let depth = List.length !trace in
    if depth > !max_depth then max_depth := depth;
    if outcome.por_pruned then begin
      (* Sleep-set blocked: the execution was abandoned as redundant. Its
         partial trace still drives the backtracking, but it is not an
         execution of the program — no outcome is reported. *)
      incr sleep_blocked;
      trace_execution ~kind:"dfs-sleep-blocked" ~depth outcome
    end
    else begin
      incr executions;
      preempt_spent := !preempt_spent + outcome.preemptions;
      yields := !yields + outcome.yields;
      flushes := !flushes + outcome.flushes;
      choice_points := !choice_points + outcome.choice_points;
      (match outcome.exec_end with
       | Deadlock _ -> incr deadlocks
       | Diverged -> incr divergences
       | Serial_stuck _ -> incr serial_stucks
       | All_finished -> ());
      trace_execution ~kind:"dfs" ~depth outcome;
      if not (admit outcome) then incr skips
      else begin
        match on_execution outcome with
        | `Stop ->
          continue_ := false;
          complete := false
        | `Continue -> ()
      end
    end;
    if !continue_ then begin
      match next_prefix !trace with
      | None -> continue_ := false
      | Some prefix -> (
        replay := prefix;
        match cfg.max_executions with
        | Some cap when !executions >= cap ->
          continue_ := false;
          complete := false
        | Some _ | None -> ())
    end
  done;
  {
    executions = !executions;
    total_steps = !total_steps;
    deadlocks = !deadlocks;
    divergences = !divergences;
    serial_stucks = !serial_stucks;
    max_depth = !max_depth;
    pruned_choices = !pruned;
    preemptions_spent = !preempt_spent;
    yields = !yields;
    choice_points = !choice_points;
    exact_bound_skips = !skips;
    sleep_set_skips = !sleep_blocked;
    backtrack_points = !backtracks;
    flushes = !flushes;
    complete = !complete;
  }

let explore cfg ?admit ~setup ~on_execution () =
  explore_replay cfg ?admit ~replay0:[] ~setup ~on_execution ()

(* ------------------------------------------------------------------ *)
(* Frontier splitting: depth-k prefix partitions for intra-check         *)
(* parallelism                                                           *)
(* ------------------------------------------------------------------ *)

type choice =
  | Sched_choice of int
  | Value_choice of { chosen : int; arity : int }

type prefix = choice list

type frontier = {
  prefixes : prefix list;
  warmup : stats;
}

(* Textual transport encoding of a decision prefix, for handing partitions
   to other processes and for on-disk checkpoints: choices are ';'-joined
   tokens, [sN] for a thread choice and [vC/A] for a value choice of arity
   [A]. The format is total on its image and rejects anything else, so a
   corrupted or foreign checkpoint surfaces as [Error] rather than as a
   bogus replay. *)
let prefix_to_string p =
  String.concat ";"
    (List.map
       (function
         | Sched_choice t -> Printf.sprintf "s%d" t
         | Value_choice { chosen; arity } -> Printf.sprintf "v%d/%d" chosen arity)
       p)

let prefix_of_string s =
  let choice_of_token tok =
    let num sub =
      match int_of_string_opt sub with
      | Some n when n >= 0 -> Ok n
      | Some _ | None -> Error (Printf.sprintf "Explore.prefix_of_string: bad number %S" sub)
    in
    if tok = "" then Error "Explore.prefix_of_string: empty token"
    else
      match tok.[0], String.index_opt tok '/' with
      | 's', None -> (
        match num (String.sub tok 1 (String.length tok - 1)) with
        | Ok t -> Ok (Sched_choice t)
        | Error _ as e -> e)
      | 'v', Some slash -> (
        match
          ( num (String.sub tok 1 (slash - 1)),
            num (String.sub tok (slash + 1) (String.length tok - slash - 1)) )
        with
        | Ok chosen, Ok arity when chosen < arity -> Ok (Value_choice { chosen; arity })
        | Ok _, Ok _ -> Error (Printf.sprintf "Explore.prefix_of_string: chosen >= arity in %S" tok)
        | (Error _ as e), _ | _, (Error _ as e) -> e)
      | _ -> Error (Printf.sprintf "Explore.prefix_of_string: unrecognized token %S" tok)
  in
  if s = "" then Ok []
  else
    List.fold_right
      (fun tok acc ->
        match acc with
        | Error _ as e -> e
        | Ok rest -> (
          match choice_of_token tok with Ok c -> Ok (c :: rest) | Error _ as e -> e))
      (String.split_on_char ';' s)
      (Ok [])

let freeze_decisions ds =
  List.map
    (function
      | Thread t -> Sched_choice t.chosen
      | Value v -> Value_choice { chosen = v.chosen; arity = v.arity })
    ds

(* Thawed prefixes carry no untried alternatives and are marked frozen:
   [next_prefix] can never flip a prefix decision and the reduction never
   requests siblings there, which is what confines {!explore_from} to the
   partition's subtree. *)
let thaw_prefix p =
  List.map
    (function
      | Sched_choice chosen ->
        Thread
          {
            chosen;
            untried = [];
            explored = [];
            sleep = [];
            candidates = [];
            free = [];
            fp = Footprint.pure;
            sleep_ok = false;
            frozen = true;
          }
      | Value_choice { chosen; arity } -> Value { chosen; untried = []; arity })
    p

let take_at_most n l =
  let rec go n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: go (n - 1) rest
  in
  go n l

let explore_from cfg ?admit ~prefix ~setup ~on_execution () =
  explore_replay cfg ?admit ~replay0:(thaw_prefix prefix) ~setup ~on_execution ()

let split cfg ~depth ~setup ~on_execution =
  if depth < 1 then invalid_arg "Explore.split: depth must be >= 1";
  (* The warm-up is the DFS of {!explore} with backtracking restricted to
     the first [depth] decisions: each execution realizes exactly one
     depth-<=[depth] decision prefix, and mutating only those decisions
     enumerates every such prefix once, in canonical DFS order. Decisions
     past the cut are executed (an execution cannot stop mid-flight) but
     their alternatives are left to the per-partition exploration.

     The warm-up always runs unreduced (por off): the frontier must
     partition the full choice tree so that the partition set — and hence
     the [-j] merge order — is identical with and without the reduction;
     each partition then explores its own subtree reduced. Cross-partition
     redundancy that monolithic POR would have pruned is the price of a
     [-j]-independent frontier. *)
  let cfg = { cfg with por = false } in
  let executions = ref 0 in
  let total_steps = ref 0 in
  let deadlocks = ref 0 in
  let divergences = ref 0 in
  let serial_stucks = ref 0 in
  let max_depth_ = ref 0 in
  let pruned = ref 0 in
  let preempt_spent = ref 0 in
  let yields = ref 0 in
  let flushes = ref 0 in
  let choice_points = ref 0 in
  let complete = ref true in
  let prefixes = ref [] in
  let replay = ref [] in
  let continue_ = ref true in
  while !continue_ do
    let trace = ref [] in
    let last_running = ref None in
    let base = dfs_decider ~replay:!replay ~trace ~last_running () in
    let decider =
      {
        base with
        decide_thread =
          (fun ~free ~costly ~pending ->
            let c = base.decide_thread ~free ~costly ~pending in
            last_running := Some c;
            c);
      }
    in
    let outcome = run_one cfg ~decider ~pruned ~setup in
    incr executions;
    total_steps := !total_steps + outcome.steps;
    preempt_spent := !preempt_spent + outcome.preemptions;
    yields := !yields + outcome.yields;
    flushes := !flushes + outcome.flushes;
    choice_points := !choice_points + outcome.choice_points;
    (match outcome.exec_end with
     | Deadlock _ -> incr deadlocks
     | Diverged -> incr divergences
     | Serial_stuck _ -> incr serial_stucks
     | All_finished -> ());
    let tr = List.rev !trace in
    let cut = take_at_most depth tr in
    let d = List.length tr in
    if d > !max_depth_ then max_depth_ := d;
    trace_execution ~kind:"split-warmup" ~depth:d outcome;
    (* Freeze before [next_prefix] mutates the shared decision records. *)
    prefixes := freeze_decisions cut :: !prefixes;
    (match on_execution outcome with
     | `Stop ->
       continue_ := false;
       complete := false
     | `Continue -> ());
    if !continue_ then begin
      match next_prefix (List.rev cut) with
      | None -> continue_ := false
      | Some p -> (
        replay := p;
        match cfg.max_executions with
        | Some cap when !executions >= cap ->
          continue_ := false;
          complete := false
        | Some _ | None -> ())
    end
  done;
  {
    prefixes = List.rev !prefixes;
    warmup =
      {
        executions = !executions;
        total_steps = !total_steps;
        deadlocks = !deadlocks;
        divergences = !divergences;
        serial_stucks = !serial_stucks;
        max_depth = !max_depth_;
        pruned_choices = !pruned;
        preemptions_spent = !preempt_spent;
        yields = !yields;
        choice_points = !choice_points;
        exact_bound_skips = 0;
        sleep_set_skips = 0;
        backtrack_points = 0;
        flushes = !flushes;
        complete = !complete;
      };
  }

let explore_iterative cfg ~max_bound ~setup ~on_execution =
  let stopped_at = ref None in
  let rec go bound acc =
    if bound > max_bound || Option.is_some !stopped_at then List.rev acc
    else begin
      (* Exact-bound admission, hoisted into the explorer: a schedule
         spending c < bound preemptions was already admitted when the sweep
         ran at bound c. The bound-b tree necessarily re-executes it on the
         way to the new leaves, but the admission filter rejects it before
         any per-execution work (history construction, checking) happens —
         it is counted in [stats.exact_bound_skips] and nothing else. *)
      let admit (o : exec_outcome) = not (bound > 0 && o.preemptions < bound) in
      let stats =
        explore
          { cfg with preemption_bound = Some bound }
          ~admit ~setup
          ~on_execution:(fun outcome ->
            match on_execution outcome with
            | `Stop ->
              stopped_at := Some bound;
              `Stop
            | `Continue -> `Continue)
          ()
      in
      go (bound + 1) (stats :: acc)
    end
  in
  let all = go 0 [] in
  all, !stopped_at

(* ------------------------------------------------------------------ *)
(* Random-walk baseline                                                *)
(* ------------------------------------------------------------------ *)

let random_walk cfg ~rng ~executions:target ~setup ~on_execution =
  let executions = ref 0 in
  let total_steps = ref 0 in
  let deadlocks = ref 0 in
  let divergences = ref 0 in
  let serial_stucks = ref 0 in
  let pruned = ref 0 in
  let preempt_spent = ref 0 in
  let yields = ref 0 in
  let flushes = ref 0 in
  let choice_points = ref 0 in
  let continue_ = ref true in
  while !continue_ && !executions < target do
    let decider =
      {
        decide_thread =
          (fun ~free ~costly ~pending:_ ->
            let all = Array.of_list (free @ costly) in
            all.(Random.State.int rng (Array.length all)));
        decide_value = (fun ~arity -> Random.State.int rng arity);
        note_end = (fun ~voluntary:_ -> ());
      }
    in
    let outcome = run_one cfg ~decider ~pruned ~setup in
    incr executions;
    total_steps := !total_steps + outcome.steps;
    preempt_spent := !preempt_spent + outcome.preemptions;
    yields := !yields + outcome.yields;
    flushes := !flushes + outcome.flushes;
    choice_points := !choice_points + outcome.choice_points;
    (match outcome.exec_end with
     | Deadlock _ -> incr deadlocks
     | Diverged -> incr divergences
     | Serial_stuck _ -> incr serial_stucks
     | All_finished -> ());
    trace_execution ~kind:"random-walk" ~depth:0 outcome;
    match on_execution outcome with
    | `Stop -> continue_ := false
    | `Continue -> ()
  done;
  {
    executions = !executions;
    total_steps = !total_steps;
    deadlocks = !deadlocks;
    divergences = !divergences;
    serial_stucks = !serial_stucks;
    max_depth = 0;
    pruned_choices = !pruned;
    preemptions_spent = !preempt_spent;
    yields = !yields;
    choice_points = !choice_points;
    exact_bound_skips = 0;
    sleep_set_skips = 0;
    backtrack_points = 0;
    flushes = !flushes;
    complete = false;
  }
