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

type spin_point = Spin_enter | Spin_retry | Spin_exit

type _ Effect.t +=
  | Sched : sched_reason -> unit Effect.t
  | Block : (unit -> bool) * string * Footprint.t -> unit Effect.t
  | Choose : int * string -> int Effect.t
  | Yield : unit Effect.t
  | Spin : spin_point -> unit Effect.t

let sched r =
  Effect.perform (Sched r);
  match r with
  | Boundary | Return_boundary -> ()
  | Fence ->
    if Exec_ctx.logging_enabled () then
      Exec_ctx.log (Exec_ctx.Fence { tid = Exec_ctx.current_tid () })
  | Access a ->
    if Exec_ctx.logging_enabled () then
      Exec_ctx.log
        (Exec_ctx.Access
           {
             tid = Exec_ctx.current_tid ();
             loc = a.loc;
             loc_name = a.loc_name;
             kind = a.kind;
             volatile = a.volatile;
           })

let op_boundary () = sched Boundary
let fence () = sched Fence
let block ?(footprint = Footprint.unknown) ~wake what =
  if not (wake ()) then Effect.perform (Block (wake, what, footprint))
let choose ?(what = "choice") n = Effect.perform (Choose (n, what))
let yield () = Effect.perform Yield

let spin_while cond =
  Effect.perform (Spin Spin_enter);
  while cond () do
    Effect.perform (Spin Spin_retry)
  done;
  Effect.perform (Spin Spin_exit)

let self () = Exec_ctx.current_tid ()

let run_inline (type a) (f : unit -> a) : a =
  let open Effect.Deep in
  match_with f ()
    {
      retc = (fun x -> x);
      exnc = raise;
      effc =
        (fun (type b) (eff : b Effect.t) ->
          match eff with
          | Sched _ -> Some (fun (k : (b, a) continuation) -> continue k ())
          | Block (wake, what, _) ->
            Some
              (fun (k : (b, a) continuation) ->
                if wake () then continue k ()
                else failwith ("Rt.run_inline: blocked on " ^ what))
          | Choose (_, _) -> Some (fun (k : (b, a) continuation) -> continue k 0)
          | Yield -> Some (fun (k : (b, a) continuation) -> continue k ())
          | Spin _ -> Some (fun (k : (b, a) continuation) -> continue k ())
          | _ -> None);
    }
