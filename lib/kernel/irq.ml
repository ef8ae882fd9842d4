(* Sized like an MSI vector space rather than a legacy PIC: a fleet run
   binds hundreds of PCI functions, each with its own interrupt line. *)
let nr_irqs = 1024
let retry_ns = 500

(* Safety net for a line stuck behind a delivery window that no hook
   ever closes; the backlog drain is the real wake, so this only has to
   be rare enough not to matter. *)
let fallback_ns = 100_000

type line = {
  mutable handler : (string * (unit -> unit)) option;
  mutable disable_depth : int;
  mutable pending : bool;
  mutable delivered : int;
  mutable queued : bool;  (* waiting in the blocked-line backlog *)
  mutable retry_armed : bool;
      (* a fallback retry event is outstanding: at most one per line,
         or a fleet of devices asserting during long irq-masked windows
         schedules one retry chain per assertion and the event queue
         grows with traffic instead of with line count *)
  mutable born : int option;
      (* birth stamp of the oldest undelivered assertion: re-assertions
         while pending coalesce onto it, so the recorded raise-to-entry
         latency covers the full masked window, not the last re-raise *)
}

let fresh_line () =
  {
    handler = None;
    disable_depth = 0;
    pending = false;
    delivered = 0;
    queued = false;
    retry_armed = false;
    born = None;
  }

let lines = Array.init nr_irqs (fun _ -> fresh_line ())
let spurious_count = ref 0

let check n =
  if n < 0 || n >= nr_irqs then Panic.bug "irq %d out of range" n;
  lines.(n)

let request_irq n ~name handler =
  let l = check n in
  Ktrace.note (Ktrace.Irq_line n) Ktrace.Write;
  (match l.handler with
  | Some (owner, _) -> Panic.bug "irq %d already claimed by %s" n owner
  | None -> ());
  l.handler <- Some (name, handler)

let free_irq n =
  let l = check n in
  Ktrace.note (Ktrace.Irq_line n) Ktrace.Write;
  l.handler <- None;
  l.pending <- false;
  l.queued <- false;
  l.retry_armed <- false;
  l.born <- None

let cpu_can_take_irq () = not (Sched.irqs_masked () || Sched.in_interrupt ())

(* Run [f] in interrupt context now if the CPU allows, otherwise retry
   from a clock event until it does. *)
let rec run_at_high_priority f =
  if cpu_can_take_irq () then begin
    Sched.enter_interrupt ();
    Clock.consume Cost.current.irq_dispatch_ns;
    (match f () with
    | () -> Sched.exit_interrupt ()
    | exception e ->
        Sched.exit_interrupt ();
        raise e)
  end
  else ignore (Clock.after retry_ns (fun () -> run_at_high_priority f))

(* Lines that asserted while the CPU could not take an interrupt, in
   arrival order. They wait silently — like an interrupt controller
   holding lines high — and are delivered back-to-back the moment a
   delivery window opens (the [Sched] irq-window hook fires on every
   exit from interrupt context and irq unmask). A convoy of N pending
   devices therefore costs N deliveries, not N^2 retry polls; a
   long-period fallback timer covers only the windows no hook ever
   closes. *)
let backlog : int Queue.t = Queue.create ()

let rec try_deliver n =
  let l = lines.(n) in
  if l.pending && l.disable_depth = 0 then
    if cpu_can_take_irq () then begin
      l.pending <- false;
      match l.handler with
      | Some (_, handler) ->
          l.delivered <- l.delivered + 1;
          Ktrace.note (Ktrace.Irq_line n) Ktrace.Wait;
          Sched.enter_interrupt ();
          Clock.consume Cost.current.irq_dispatch_ns;
          (* handler entry: the raise-to-entry timeline includes the
             dispatch cost and any masked/backlogged wait *)
          (match l.born with
          | Some b ->
              l.born <- None;
              Latency.observe_path "irq" (Int.max 0 (Clock.now () - b))
          | None -> ());
          (match handler () with
          | () -> Sched.exit_interrupt ()
          | exception e ->
              Sched.exit_interrupt ();
              raise e);
          (* The device may have re-asserted the line meanwhile. *)
          try_deliver n
      | None -> incr spurious_count
    end
    else begin
      if not l.queued then begin
        l.queued <- true;
        Queue.push n backlog
      end;
      if not l.retry_armed then begin
        l.retry_armed <- true;
        ignore
          (Clock.after fallback_ns (fun () ->
               l.retry_armed <- false;
               try_deliver n))
      end
    end

and drain_backlog () =
  if cpu_can_take_irq () then
    match Queue.take_opt backlog with
    | Some n ->
        lines.(n).queued <- false;
        try_deliver n;
        drain_backlog ()
    | None -> ()

let raise_irq n =
  let l = check n in
  Ktrace.note (Ktrace.Irq_line n) Ktrace.Signal;
  if Option.is_none l.handler then incr spurious_count
  else begin
    if Option.is_none l.born then l.born <- Some (Clock.now ());
    l.pending <- true;
    try_deliver n
  end

let disable_irq n =
  let l = check n in
  Ktrace.note (Ktrace.Irq_line n) Ktrace.Write;
  l.disable_depth <- l.disable_depth + 1

let enable_irq n =
  let l = check n in
  if l.disable_depth = 0 then Panic.bug "enable_irq %d: not disabled" n;
  Ktrace.note (Ktrace.Irq_line n) Ktrace.Write;
  l.disable_depth <- l.disable_depth - 1;
  if l.disable_depth = 0 then try_deliver n

let delivered n = (check n).delivered
let spurious () = !spurious_count

let reset () =
  Array.iteri (fun i _ -> lines.(i) <- fresh_line ()) lines;
  Queue.clear backlog;
  spurious_count := 0;
  (* re-arm the backlog drain over any hook installed since *)
  Sched.set_irq_window_hook drain_backlog

let () =
  reset ();
  Boot.on_boot reset
