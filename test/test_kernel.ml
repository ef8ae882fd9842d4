(* Unit and property tests for the simulated kernel substrate. *)

open Decaf_kernel

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Boot the machine, run [main] as the first thread, drive the simulation
   to completion, and return [main]'s result. *)
let run_sim ?until_ns main =
  Boot.boot ();
  let result = ref None in
  ignore (Sched.spawn ~name:"main" (fun () -> result := Some (main ())));
  Sched.run ?until_ns ();
  match !result with
  | Some v -> v
  | None -> Alcotest.fail "main thread did not complete"

(* --- Clock --- *)

let test_clock_consume () =
  Boot.boot ();
  Clock.consume 1_000;
  check "now" 1_000 (Clock.now ());
  check "busy" 1_000 (Clock.busy_ns ())

let test_clock_event_order () =
  Boot.boot ();
  let log = ref [] in
  ignore (Clock.at 300 (fun () -> log := 3 :: !log));
  ignore (Clock.at 100 (fun () -> log := 1 :: !log));
  ignore (Clock.at 200 (fun () -> log := 2 :: !log));
  Clock.consume 250;
  Alcotest.(check (list int)) "first two fired in order" [ 2; 1 ] !log;
  Clock.consume 100;
  Alcotest.(check (list int)) "all fired" [ 3; 2; 1 ] !log

let test_clock_cancel () =
  Boot.boot ();
  let fired = ref false in
  let ev = Clock.after 100 (fun () -> fired := true) in
  check_bool "pending" true (Clock.pending ev);
  Clock.cancel ev;
  Clock.consume 200;
  check_bool "cancelled event did not fire" false !fired

let test_clock_event_reschedules () =
  Boot.boot ();
  let count = ref 0 in
  let rec tick () =
    incr count;
    if !count < 5 then ignore (Clock.after 10 tick)
  in
  ignore (Clock.after 10 tick);
  Clock.consume 1_000;
  check "recurring event" 5 !count

let test_clock_utilization () =
  Boot.boot ();
  let since = Clock.now () and busy_since = Clock.busy_ns () in
  Clock.consume 300;
  ignore (Clock.after 700 ignore);
  ignore (Clock.advance_to_next_event ());
  let u = Clock.utilization ~since ~busy_since in
  Alcotest.(check (float 0.001)) "30% busy" 0.3 u

(* Same-due-time events deliver in schedule order: the heap key
   tie-breaks on the monotone sequence number, so two timers armed for
   the same instant cannot swap — including one armed from inside an
   earlier event's callback. *)
let test_clock_same_due_fifo () =
  Boot.boot ();
  let log = ref [] in
  List.iter
    (fun i -> ignore (Clock.at 100 (fun () -> log := i :: !log)))
    [ 1; 2; 3 ];
  ignore
    (Clock.at 50 (fun () ->
         ignore (Clock.at 100 (fun () -> log := 4 :: !log))));
  Clock.consume 200;
  Alcotest.(check (list int)) "FIFO at equal due time" [ 1; 2; 3; 4 ]
    (List.rev !log);
  (* and through the advance/deliver path, not just consume *)
  Boot.boot ();
  let log = ref [] in
  ignore (Clock.after 10 (fun () -> log := 1 :: !log));
  ignore (Clock.after 10 (fun () -> log := 2 :: !log));
  ignore (Clock.advance_to_next_event ());
  Alcotest.(check (list int)) "advance keeps FIFO" [ 1; 2 ] (List.rev !log)

(* Event ids must stay unique across a reboot: the sequence counter is
   never reset, so an id held from before [reset] (a hardware model's
   stale timer) can neither collide with nor cancel a fresh event. *)
let test_clock_stale_id_across_reset () =
  Boot.boot ();
  let stale = Clock.after 100 ignore in
  Boot.boot ();
  let fired = ref false in
  let fresh = Clock.after 100 (fun () -> fired := true) in
  check_bool "stale id no longer pending" false (Clock.pending stale);
  Clock.cancel stale;
  check_bool "cancel of stale id leaves fresh event armed" true
    (Clock.pending fresh);
  Clock.consume 200;
  check_bool "fresh event fired" true !fired

(* --- Clock queue against a reference model --- *)

(* Operations on the event queue. [Q_at (d, child)] schedules at
   now + d (d < 0 lands in the past); when it fires it logs itself and,
   given a child delay, schedules one more event from inside its
   callback. [Q_cancel k] cancels the k-th id ever handed out (mod the
   count): live, fired, already cancelled or from before a reboot. *)
type qop =
  | Q_at of int * int option
  | Q_after of int
  | Q_cancel of int
  | Q_consume of int
  | Q_advance
  | Q_boot

let show_qop = function
  | Q_at (d, c) ->
      Printf.sprintf "at %+d%s" d
        (match c with Some c -> Printf.sprintf " child %d" c | None -> "")
  | Q_after d -> Printf.sprintf "after %d" d
  | Q_cancel k -> Printf.sprintf "cancel %d" k
  | Q_consume n -> Printf.sprintf "consume %d" n
  | Q_advance -> "advance"
  | Q_boot -> "boot"

(* Due times are multiples of 10 over a short range, so many events
   share a due time and the FIFO tie-break decides their order. *)
let gen_qop =
  let open QCheck.Gen in
  let tens lo hi = map (fun k -> 10 * k) (int_range lo hi) in
  frequency
    [
      ( 4,
        map2
          (fun d c -> Q_at (d, c))
          (tens (-2) 6)
          (frequency [ (3, pure None); (1, map Option.some (tens 0 3)) ]) );
      (2, map (fun d -> Q_after d) (tens 0 6));
      (4, map (fun k -> Q_cancel k) nat);
      (2, map (fun n -> Q_consume n) (int_range 0 50));
      (2, pure Q_advance);
      (1, pure Q_boot);
    ]

(* Run [ops] against [Clock] and against a reference sorted list keyed
   by (due, seq), comparing after every step: firing order, virtual
   time, [pending] of every id ever issued, [has_events], [scheduled],
   and the dead-entry bound right after a cancel of a pending event.
   Returns how many such cancels shrank the queue (compactions). *)
let run_queue_model ops =
  Boot.boot ();
  (* the clock under test *)
  let ids = Hashtbl.create 64 and log = ref [] and next = ref 0 in
  let rec real_schedule sched child =
    let label = !next in
    incr next;
    let f () =
      log := label :: !log;
      Option.iter (fun d -> real_schedule (Clock.after d) None) child
    in
    Hashtbl.replace ids label (sched f)
  in
  (* the reference: pending (due, seq, label, child), sorted *)
  let m_pending = ref [] and m_live = Hashtbl.create 64 in
  let m_time = ref 0 and m_seq = ref 0 and m_sched = ref 0 in
  let m_log = ref [] and m_next = ref 0 in
  let m_schedule due child =
    let due = max due !m_time in
    incr m_seq;
    incr m_sched;
    let label = !m_next in
    incr m_next;
    Hashtbl.replace m_live label true;
    let ev = (due, !m_seq, label, child) in
    let rec insert = function
      | ((d, _, _, _) as x) :: rest when d <= due -> x :: insert rest
      | rest -> ev :: rest
    in
    m_pending := insert !m_pending
  in
  let m_fire (due, _, label, child) =
    Hashtbl.replace m_live label false;
    if due > !m_time then m_time := due;
    m_log := label :: !m_log;
    Option.iter (fun d -> m_schedule (!m_time + d) None) child
  in
  let m_consume ns =
    let remaining = ref ns in
    while !remaining > 0 do
      match !m_pending with
      | ((due, _, _, _) as ev) :: rest when due <= !m_time + !remaining ->
          remaining := !remaining - max 0 (due - !m_time);
          m_pending := rest;
          m_fire ev
      | _ ->
          m_time := !m_time + !remaining;
          remaining := 0
    done
  in
  let rec m_deliver t =
    match !m_pending with
    | ((due, _, _, _) as ev) :: rest when due <= t ->
        m_pending := rest;
        m_fire ev;
        m_deliver (max t !m_time)
    | _ -> ()
  in
  let m_advance () =
    match !m_pending with
    | [] -> false
    | (due, _, _, _) :: _ ->
        if due > !m_time then m_time := due;
        m_deliver !m_time;
        true
  in
  let show_log l = String.concat "," (List.rev_map string_of_int l) in
  let compactions = ref 0 in
  List.iteri
    (fun step op ->
      let ctx what = Printf.sprintf "step %d (%s): %s" step (show_qop op) what in
      (* quiet on success: a long run makes millions of comparisons *)
      let same what show expected actual =
        if expected <> actual then
          Alcotest.failf "%s: expected %s, got %s" (ctx what) (show expected)
            (show actual)
      in
      let queued_before = Clock.queued () in
      let cancelled_live = ref false in
      (match op with
      | Q_at (d, child) ->
          real_schedule (Clock.at (Clock.now () + d)) child;
          m_schedule (!m_time + d) child
      | Q_after d ->
          real_schedule (Clock.after d) None;
          m_schedule (!m_time + d) None
      | Q_cancel k ->
          if !next > 0 then begin
            let label = k mod !next in
            Clock.cancel (Hashtbl.find ids label);
            cancelled_live := Hashtbl.find m_live label;
            Hashtbl.replace m_live label false;
            m_pending :=
              List.filter (fun (_, _, l, _) -> l <> label) !m_pending
          end
      | Q_consume n ->
          Clock.consume n;
          m_consume n
      | Q_advance ->
          same "advance result" string_of_bool (m_advance ())
            (Clock.advance_to_next_event ())
      | Q_boot ->
          Boot.boot ();
          m_pending := [];
          Hashtbl.filter_map_inplace (fun _ _ -> Some false) m_live;
          m_time := 0;
          m_sched := 0);
      same "firing order" show_log !m_log !log;
      same "now" string_of_int !m_time (Clock.now ());
      same "has_events" string_of_bool (!m_pending <> [])
        (Clock.has_events ());
      same "scheduled" string_of_int !m_sched (Clock.scheduled ());
      Hashtbl.iter
        (fun label id ->
          if Hashtbl.find m_live label <> Clock.pending id then
            Alcotest.failf "%s: expected %b" (ctx (Printf.sprintf "pending #%d" label))
              (Hashtbl.find m_live label))
        ids;
      if !cancelled_live then begin
        let live = List.length !m_pending in
        if Clock.queued () > 2 * live then
          Alcotest.failf "%s: %d queue slots for %d pending events"
            (ctx "dead-entry bound") (Clock.queued ()) live;
        (* a cancel only marks; the queue shrinks only by compacting *)
        if Clock.queued () < queued_before then incr compactions
      end)
    ops;
  !compactions

let prop_clock_queue_model =
  QCheck.Test.make ~name:"clock queue matches a sorted-list model" ~count:300
    QCheck.(list_of_size Gen.(int_range 0 150) (make ~print:show_qop gen_qop))
    (fun ops ->
      ignore (run_queue_model ops);
      true)

(* A long, cancel-heavy run: 400 events (many sharing due times) are
   cancelled in a shuffled order while half as many are re-armed, so
   dead entries come to outnumber live ones and compaction must run;
   then 4000 random steps, mostly cancels, with the odd reboot. *)
let test_clock_queue_model_compaction () =
  let st = Random.State.make [| 12 |] in
  let fill = List.init 400 (fun _ -> Q_at (10 * Random.State.int st 200, None)) in
  let order = Array.init 400 Fun.id in
  for i = 399 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- x
  done;
  let cancel_fill =
    List.concat_map
      (fun label ->
        if label mod 2 = 0 then [ Q_cancel label ]
        else [ Q_cancel label; Q_after (10 * Random.State.int st 200) ])
      (Array.to_list order)
  in
  let churn =
    List.init 4000 (fun i ->
        match i mod 8 with
        | 0 | 1 | 2 | 4 | 6 -> Q_cancel (Random.State.bits st)
        | 3 | 5 -> Q_after (10 * Random.State.int st 200)
        | _ ->
            if i mod 1000 = 999 then Q_boot
            else Q_consume (Random.State.int st 40))
  in
  check_bool "compaction ran" true
    (run_queue_model (fill @ cancel_fill @ churn) > 0)

(* --- tracked events (the latency cost model's stamp points) --- *)

let test_clock_tracked_events () =
  Boot.boot ();
  let tr = Clock.track "t.explicit" in
  Clock.consume 250;
  check "complete returns the elapsed ns" 250 (Clock.complete tr);
  check "observation landed in the registry" 1
    (Latency.count (Latency.get "t.explicit"));
  Clock.track_begin "t.span";
  Clock.consume 100;
  Clock.track_begin "t.span";
  Clock.consume 50;
  Alcotest.(check (option int))
    "first end pairs the oldest birth" (Some 150) (Clock.track_end "t.span");
  Alcotest.(check (option int))
    "second end pairs the newer birth" (Some 50) (Clock.track_end "t.span");
  Alcotest.(check (option int))
    "unmatched end is a no-op" None (Clock.track_end "t.span");
  Clock.track_begin "t.span";
  Clock.track_drain "t.span";
  Alcotest.(check (option int))
    "drain orphans outstanding births" None (Clock.track_end "t.span")

(* --- Latency histograms --- *)

(* Values below 64 ns land in exact unit buckets, and the bucket ranges
   tile the whole domain with no gap or overlap. *)
let test_latency_bucket_exactness () =
  for v = 0 to 63 do
    Alcotest.(check (pair int int))
      "unit bucket is exact" (v, v)
      (Latency.bucket_bounds (Latency.bucket_index v))
  done;
  let prev_high = ref (-1) in
  for idx = 0 to Latency.num_buckets - 1 do
    let lo, hi = Latency.bucket_bounds idx in
    check "buckets are contiguous" (!prev_high + 1) lo;
    check_bool "bounds ordered" true (hi >= lo);
    check "low bound maps to its bucket" idx (Latency.bucket_index lo);
    check "high bound maps to its bucket" idx (Latency.bucket_index hi);
    prev_high := hi
  done

let test_latency_percentiles_small () =
  let h = Latency.create () in
  List.iter (Latency.observe h) [ 10; 20; 30; 40; 1_000 ];
  check "count" 5 (Latency.count h);
  check "p50 of five samples is the third" 30 (Latency.percentile h 0.5);
  (* the p999 rank rounds up to the last sample, reported at the true
     maximum rather than a bucket bound *)
  check "p999 of five samples is the max" 1_000 (Latency.percentile h 0.999);
  check "p0+ is the min" 10 (Latency.percentile h 0.001)

let test_latency_merge () =
  (* two per-lane histograms merge into the pool-wide distribution *)
  let a = Latency.create () and b = Latency.create () in
  for i = 1 to 100 do
    Latency.observe a i
  done;
  for i = 101 to 200 do
    Latency.observe b i
  done;
  let m = Latency.merged [ a; b ] in
  check "merged count" 200 (Latency.count m);
  check "merged p50 straddles the lanes" 100 (Latency.percentile m 0.5);
  check "merged max" 200 (Latency.max_ns m);
  check "merged min" 1 (Latency.min_ns m);
  check "sources untouched" 100 (Latency.count a)

let test_latency_overflow () =
  let h = Latency.create () in
  Latency.observe h max_int;
  Latency.observe h 5;
  check "count includes the overflow sample" 2 (Latency.count h);
  check "overflow accounted separately" 1 (Latency.overflow_count h);
  check "median unaffected" 5 (Latency.percentile h 0.5);
  check "tail reports the true max" max_int (Latency.percentile h 0.999)

(* A boot drops every path; the next boot's paths start empty and
   reuse the dropped histograms instead of allocating new ones. *)
let test_latency_boot_reuses () =
  Boot.boot ();
  List.iter (Latency.observe_path "t.a") [ 3; 5_000 ];
  List.iter (Latency.observe_path "t.b") [ 5_000; max_int ];
  Boot.boot ();
  Alcotest.(check (list string)) "boot drops the paths" [] (Latency.paths ());
  let allocated () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let w0 = allocated () in
  Latency.observe_path "t.c" 70_000;
  Latency.observe_path "t.d" 70_000;
  let words = allocated () -. w0 in
  Alcotest.(check (list string)) "new paths listed" [ "t.c"; "t.d" ] (Latency.paths ());
  List.iter
    (fun p ->
      let h = Latency.get p in
      check "reused histogram starts empty" 1 (Latency.count h);
      check "no overflow carried over" 0 (Latency.overflow_count h);
      check "old buckets zeroed" 70_000 (Latency.percentile h 0.5))
    [ "t.c"; "t.d" ];
  check_bool
    (Printf.sprintf "no histogram allocated (%.0f words)" words)
    true
    (words < float_of_int Latency.num_buckets)

(* --- Scheduler --- *)

let test_sched_yield_interleaves () =
  let log = ref [] in
  let body tag () =
    for _ = 1 to 3 do
      log := tag :: !log;
      Sched.yield ()
    done
  in
  run_sim (fun () ->
      ignore (Sched.spawn ~name:"a" (body "a"));
      ignore (Sched.spawn ~name:"b" (body "b")));
  (* run_sim's main exits first; a and b then alternate. *)
  Sched.run ();
  Alcotest.(check (list string))
    "interleaved" [ "b"; "a"; "b"; "a"; "b"; "a" ] !log

let test_sched_sleep_orders_by_time () =
  Boot.boot ();
  let log = ref [] in
  let sleeper tag ns () =
    Sched.sleep_ns ns;
    log := tag :: !log
  in
  ignore (Sched.spawn (sleeper "late" 2_000_000));
  ignore (Sched.spawn (sleeper "early" 500_000));
  Sched.run ();
  Alcotest.(check (list string)) "wakeup order" [ "late"; "early" ] !log;
  check_bool "clock advanced" true (Clock.now () >= 2_000_000)

let test_sched_suspend_wake () =
  Boot.boot ();
  let wake_fn = ref ignore in
  let woke = ref false in
  ignore
    (Sched.spawn (fun () ->
         Sched.suspend ~register:(fun w -> wake_fn := w);
         woke := true));
  Sched.run ();
  check_bool "still suspended" false !woke;
  !wake_fn ();
  !wake_fn ();
  (* double wake is harmless *)
  Sched.run ();
  check_bool "woken exactly once" true !woke

let test_sched_until_ns () =
  Boot.boot ();
  let iterations = ref 0 in
  ignore
    (Sched.spawn (fun () ->
         while true do
           incr iterations;
           Sched.sleep_ns 100_000
         done));
  Sched.run ~until_ns:1_000_000 ();
  check_bool "deadline reached" true (Clock.now () >= 1_000_000);
  check_bool "stopped near deadline" true (!iterations >= 5 && !iterations <= 12)

(* --- Sync --- *)

let test_spinlock_blocks_forbidden () =
  run_sim (fun () ->
      let l = Sync.Spinlock.create () in
      Sync.Spinlock.lock l;
      let raised =
        try
          Sched.sleep_ns 10;
          false
        with Sched.Would_block_in_atomic _ -> true
      in
      Sync.Spinlock.unlock l;
      check_bool "blocking under spinlock raises" true raised)

let test_spinlock_self_deadlock () =
  run_sim (fun () ->
      let l = Sync.Spinlock.create ~name:"t" () in
      Sync.Spinlock.lock l;
      let raised =
        try
          Sync.Spinlock.lock l;
          false
        with Panic.Kernel_bug _ -> true
      in
      Sync.Spinlock.unlock l;
      check_bool "recursive spinlock is a bug" true raised)

let test_semaphore_blocks_and_wakes () =
  Boot.boot ();
  let s = Sync.Semaphore.create 0 in
  let got = ref false in
  ignore
    (Sched.spawn (fun () ->
         Sync.Semaphore.down s;
         got := true));
  ignore
    (Sched.spawn (fun () ->
         Sched.sleep_ns 100;
         Sync.Semaphore.up s));
  Sched.run ();
  check_bool "downer proceeded after up" true !got

let test_mutex_recursion_bug () =
  run_sim (fun () ->
      let m = Sync.Mutex.create () in
      Sync.Mutex.lock m;
      let raised =
        try
          Sync.Mutex.lock m;
          false
        with Panic.Kernel_bug _ -> true
      in
      Sync.Mutex.unlock m;
      check_bool "recursive mutex is a bug" true raised)

let test_completion () =
  Boot.boot ();
  let c = Sync.Completion.create () in
  let n_done = ref 0 in
  for _ = 1 to 3 do
    ignore
      (Sched.spawn (fun () ->
           Sync.Completion.wait c;
           incr n_done))
  done;
  ignore (Sched.spawn (fun () -> Sync.Completion.complete_all c));
  Sched.run ();
  check "complete_all wakes everyone" 3 !n_done

let test_combolock_kernel_fast_path () =
  run_sim (fun () ->
      let l = Sync.Combolock.create () in
      Sync.Combolock.with_kernel l (fun () -> ());
      Sync.Combolock.with_kernel l (fun () -> ());
      let st = Sync.Combolock.stats l in
      check "spin acquires" 2 st.Sync.Combolock.spin_acquires;
      check "sem acquires" 0 st.Sync.Combolock.sem_acquires)

let test_combolock_user_converts_to_semaphore () =
  Boot.boot ();
  let l = Sync.Combolock.create () in
  let order = ref [] in
  ignore
    (Sched.spawn ~name:"user" (fun () ->
         Sync.Combolock.lock_user l;
         order := "user-acquired" :: !order;
         Sched.sleep_ns 1_000_000;
         order := "user-released" :: !order;
         Sync.Combolock.unlock_user l));
  ignore
    (Sched.spawn ~name:"kernel" (fun () ->
         Sched.sleep_ns 10_000;
         (* user holds the lock: the kernel thread must take the
            semaphore path and block rather than spin. *)
         Sync.Combolock.lock_kernel l;
         order := "kernel-acquired" :: !order;
         Sync.Combolock.unlock_kernel l));
  Sched.run ();
  Alcotest.(check (list string))
    "kernel waited for user"
    [ "kernel-acquired"; "user-released"; "user-acquired" ]
    !order;
  let st = Sync.Combolock.stats l in
  check "sem acquires" 2 st.Sync.Combolock.sem_acquires

let test_combolock_contention_accounting () =
  (* A user-level holder keeps the lock for 2 ms while several kernel
     workers pile up behind it — the multi-worker dispatch picture. Each
     kernel acquisition must be pushed off the spin fast path onto the
     semaphore (spin_to_sem), be counted as contended, and have its
     virtual wait time charged, both per-lock and in the machine-wide
     totals that Channel.stats reports. *)
  Boot.boot ();
  Sync.Combolock.reset_totals ();
  let l = Sync.Combolock.create ~name:"contended" () in
  let workers = 3 in
  let in_crit = ref false and overlaps = ref 0 and entered = ref 0 in
  ignore
    (Sched.spawn ~name:"user-holder" (fun () ->
         Sync.Combolock.with_user l (fun () -> Sched.sleep_ns 2_000_000)));
  for i = 1 to workers do
    ignore
      (Sched.spawn
         ~name:(Printf.sprintf "worker%d" i)
         (fun () ->
           Sched.sleep_ns 10_000;
           Sync.Combolock.with_kernel l (fun () ->
               if !in_crit then incr overlaps;
               in_crit := true;
               incr entered;
               in_crit := false)))
  done;
  Sched.run ();
  check "every worker got the lock" workers !entered;
  check "critical sections never overlapped" 0 !overlaps;
  let st = Sync.Combolock.stats l in
  check "no spin acquisitions while user involved" 0
    st.Sync.Combolock.spin_acquires;
  check "every kernel acquisition converted spin->sem" workers
    st.Sync.Combolock.spin_to_sem;
  check "all three workers hit a held semaphore" workers
    st.Sync.Combolock.contended;
  check_bool
    (Printf.sprintf "virtual wait time charged (%d ns)"
       st.Sync.Combolock.wait_ns)
    true
    (st.Sync.Combolock.wait_ns > 0);
  (* only this lock existed since reset: machine totals must agree *)
  let tot = Sync.Combolock.totals () in
  check "totals: spin_to_sem" st.Sync.Combolock.spin_to_sem
    tot.Sync.Combolock.spin_to_sem;
  check "totals: contended" st.Sync.Combolock.contended
    tot.Sync.Combolock.contended;
  check "totals: wait_ns" st.Sync.Combolock.wait_ns
    tot.Sync.Combolock.wait_ns

(* --- IRQ --- *)

let test_irq_basic_delivery () =
  Boot.boot ();
  let hits = ref 0 in
  Irq.request_irq 5 ~name:"test" (fun () ->
      check_bool "in interrupt" true (Sched.in_interrupt ());
      incr hits);
  Irq.raise_irq 5;
  check "delivered immediately" 1 !hits;
  check "counter" 1 (Irq.delivered 5)

let test_irq_disable_defers () =
  Boot.boot ();
  let hits = ref 0 in
  Irq.request_irq 5 ~name:"test" (fun () -> incr hits);
  Irq.disable_irq 5;
  Irq.raise_irq 5;
  Irq.raise_irq 5;
  check "not delivered while disabled" 0 !hits;
  Irq.enable_irq 5;
  check "coalesced single delivery on enable" 1 !hits

let test_irq_masked_cpu_defers () =
  Boot.boot ();
  let hits = ref 0 in
  Irq.request_irq 3 ~name:"test" (fun () -> incr hits);
  Sched.local_irq_save ();
  Irq.raise_irq 3;
  check "not delivered while masked" 0 !hits;
  Sched.local_irq_restore ();
  Clock.consume 10_000;
  check "delivered after unmask via retry" 1 !hits

let test_irq_spurious () =
  Boot.boot ();
  Irq.raise_irq 7;
  check "spurious counted" 1 (Irq.spurious ())

(* --- Timer --- *)

let test_timer_fires_at_high_priority () =
  Boot.boot ();
  let was_irq = ref false in
  let t = Timer.create (fun () -> was_irq := Sched.in_interrupt ()) in
  Timer.mod_timer_in t 1_000;
  Clock.consume 2_000;
  check "fired once" 1 (Timer.fired t);
  check_bool "ran in interrupt context" true !was_irq

let test_timer_del () =
  Boot.boot ();
  let t = Timer.create ignore in
  Timer.mod_timer_in t 1_000;
  check_bool "del pending" true (Timer.del_timer t);
  Clock.consume 2_000;
  check "never fired" 0 (Timer.fired t)

let test_timer_rearm () =
  Boot.boot ();
  let t = Timer.create ignore in
  Timer.mod_timer_in t 1_000;
  Timer.mod_timer_in t 5_000;
  Clock.consume 2_000;
  check "rearm replaced first deadline" 0 (Timer.fired t);
  Clock.consume 4_000;
  check "fired at new deadline" 1 (Timer.fired t)

(* A timer re-armed over and over before it expires (a watchdog pushed
   back on every packet) fires once, at its last deadline, and leaves
   neither a live event nor a pile of cancelled ones behind. *)
let test_timer_rearm_many () =
  Boot.boot ();
  let t = Timer.create ignore in
  let rearms = 100_000 in
  let deadline = Clock.now () + 1_000_000 + rearms in
  for i = 1 to rearms do
    Timer.mod_timer_in t (1_000_000 + i);
    if Clock.queued () > 2 then
      Alcotest.failf "re-arm %d: %d queue slots for one timer" i
        (Clock.queued ())
  done;
  Clock.consume (deadline - 1 - Clock.now ());
  check "not before the last deadline" 0 (Timer.fired t);
  Clock.consume 1;
  check "fired at the last deadline" 1 (Timer.fired t);
  Clock.consume 2_000_000;
  check "fired once" 1 (Timer.fired t);
  check_bool "no event left pending" false (Clock.has_events ())

(* --- Workqueue --- *)

let test_workqueue_runs_in_process_context () =
  Boot.boot ();
  let wq = Workqueue.create ~name:"test" in
  let ok = ref false in
  ignore
    (Sched.spawn (fun () ->
         Workqueue.queue_work wq (fun () ->
             (* blocking is legal here *)
             Sched.sleep_ns 100;
             ok := true);
         Workqueue.flush wq));
  Sched.run ();
  check_bool "work ran and could block" true !ok;
  check "executed" 1 (Workqueue.executed wq)

let test_workqueue_from_timer () =
  (* The paper's watchdog pattern: a high-priority timer defers to a
     work item so the work may block (and call up to the decaf driver). *)
  Boot.boot ();
  let wq = Workqueue.create ~name:"watchdog" in
  let ran_blocking = ref false in
  let t =
    Timer.create (fun () ->
        Workqueue.queue_work wq (fun () ->
            Sched.sleep_ns 50;
            ran_blocking := true))
  in
  Timer.mod_timer_in t 1_000;
  ignore (Sched.spawn (fun () -> Sched.sleep_ns 5_000));
  Sched.run ();
  check_bool "deferred work ran" true !ran_blocking

(* --- Kmem --- *)

let test_kmem_leak_tracking () =
  run_sim (fun () ->
      let a = Kmem.alloc_exn ~tag:"adapter" 512 in
      let n, b = Kmem.outstanding () in
      check "one live" 1 n;
      check "bytes" 512 b;
      Kmem.free a;
      check "none live" 0 (fst (Kmem.outstanding ())))

let test_kmem_double_free () =
  run_sim (fun () ->
      let a = Kmem.alloc_exn ~tag:"x" 8 in
      Kmem.free a;
      check_bool "double free raises" true
        (try
           Kmem.free a;
           false
         with Kmem.Use_after_free _ -> true))

let test_kmem_injection () =
  run_sim (fun () ->
      Kmem.inject_failure ~after:2;
      let a = Kmem.alloc ~tag:"a" 8 in
      let b = Kmem.alloc ~tag:"b" 8 in
      let c = Kmem.alloc ~tag:"c" 8 in
      check_bool "first ok" true (a <> None);
      check_bool "second fails" true (b = None);
      check_bool "third ok" true (c <> None);
      List.iter (function Some x -> Kmem.free x | None -> ()) [ a; b; c ])

let test_kmem_gfp_kernel_in_irq_is_bug () =
  Boot.boot ();
  let raised = ref false in
  Irq.request_irq 1 ~name:"t" (fun () ->
      match Kmem.alloc ~gfp:Kmem.Kernel ~tag:"bad" 8 with
      | exception Sched.Would_block_in_atomic _ -> raised := true
      | Some a -> Kmem.free a
      | None -> ());
  Irq.raise_irq 1;
  check_bool "GFP_KERNEL in irq raises" true !raised

(* --- Dma --- *)

let test_dma_alloc_free () =
  run_sim (fun () ->
      let m =
        match Decaf_kernel.Dma.alloc_coherent ~tag:"ring" 4096 with
        | Some m -> m
        | None -> Alcotest.fail "dma alloc failed"
      in
      check_bool "page aligned bus address" true
        (Decaf_kernel.Dma.bus_addr m mod 4096 = 0);
      check "size" 4096 (Decaf_kernel.Dma.size m);
      check "active" 1 (Decaf_kernel.Dma.active_mappings ());
      Decaf_kernel.Dma.free_coherent m;
      check "inactive" 0 (Decaf_kernel.Dma.active_mappings ()))

let test_dma_mappings_distinct () =
  run_sim (fun () ->
      let a = Option.get (Decaf_kernel.Dma.alloc_coherent ~tag:"a" 64) in
      let b = Option.get (Decaf_kernel.Dma.alloc_coherent ~tag:"b" 64) in
      check_bool "non-overlapping bus addresses" true
        (Decaf_kernel.Dma.bus_addr a <> Decaf_kernel.Dma.bus_addr b);
      Decaf_kernel.Dma.free_coherent a;
      Decaf_kernel.Dma.free_coherent b)

let test_dma_respects_injection () =
  run_sim (fun () ->
      Kmem.inject_failure ~after:1;
      check_bool "injected failure surfaces" true
        (Decaf_kernel.Dma.alloc_coherent ~tag:"x" 64 = None);
      Kmem.clear_injection ())

(* --- Io --- *)

let test_io_dispatch () =
  Boot.boot ();
  let reg = ref 0 in
  let r =
    Io.register_ports ~base:0xc000 ~len:0x40
      ~read:(fun off _ -> if off = 0x10 then !reg else 0)
      ~write:(fun off _ v -> if off = 0x10 then reg := v)
  in
  Io.outl 0xc010 0xdeadbeef;
  check "readback" 0xdeadbeef (Io.inl 0xc010);
  check "byte view masked" 0xef (Io.inb 0xc010);
  Io.release r;
  check_bool "unclaimed access is a bug" true
    (try
       ignore (Io.inb 0xc010);
       false
     with Panic.Kernel_bug _ -> true)

let test_io_overlap_rejected () =
  Boot.boot ();
  let mk base =
    Io.register_ports ~base ~len:0x10 ~read:(fun _ _ -> 0)
      ~write:(fun _ _ _ -> ())
  in
  ignore (mk 0x100);
  check_bool "overlap rejected" true
    (try
       ignore (mk 0x108);
       false
     with Panic.Kernel_bug _ -> true)

(* --- PCI --- *)

let make_test_dev ?(slot = "00:03.0") () =
  Pci.make_dev ~slot ~vendor:0x8086 ~device:0x100e ~irq_line:11
    ~bars:[ { Pci.kind = Pci.Mmio_bar; base = 0xf000_0000; len = 0x2_0000 } ]
    ()

let test_pci_probe_on_add () =
  Boot.boot ();
  let probed = ref 0 and removed = ref 0 in
  Pci.register_driver ~name:"e1000" ~ids:[ { Pci.id_vendor = 0x8086; id_device = 0x100e } ]
    ~probe:(fun _ -> incr probed; Ok ())
    ~remove:(fun _ -> incr removed);
  let dev = make_test_dev () in
  Pci.add_device dev;
  check "probed" 1 !probed;
  Alcotest.(check (option string)) "bound" (Some "e1000") (Pci.bound_driver dev);
  Pci.unregister_driver "e1000";
  check "removed" 1 !removed;
  Alcotest.(check (option string)) "unbound" None (Pci.bound_driver dev)

let test_pci_probe_on_register () =
  Boot.boot ();
  let dev = make_test_dev () in
  Pci.add_device dev;
  let probed = ref 0 in
  Pci.register_driver ~name:"e1000" ~ids:[ { Pci.id_vendor = 0x8086; id_device = 0x100e } ]
    ~probe:(fun _ -> incr probed; Ok ())
    ~remove:ignore;
  check "late driver probes existing device" 1 !probed

let test_pci_config_space () =
  Boot.boot ();
  let dev = make_test_dev () in
  check "vendor id" 0x8086 (Pci.read_config16 dev 0x00);
  check "device id" 0x100e (Pci.read_config16 dev 0x02);
  check "irq line" 11 (Pci.read_config8 dev 0x3c);
  Pci.write_config32 dev 0x40 0x12345678;
  check "rw dword" 0x12345678 (Pci.read_config32 dev 0x40);
  check "config words" 64 (Array.length (Pci.config_space_words dev))

(* --- Netcore --- *)

let null_net_ops =
  {
    Netcore.ndo_open = (fun () -> Ok ());
    ndo_stop = (fun () -> Ok ());
    ndo_start_xmit = (fun _ -> Netcore.Xmit_ok);
    ndo_tx_timeout = ignore;
  }

let test_netcore_rx_path () =
  Boot.boot ();
  let dev = Netcore.create ~name:"eth0" ~mtu:1500 null_net_ops in
  Netcore.register_netdev dev;
  let got = ref 0 in
  Netcore.set_rx_handler dev (fun skb -> got := !got + skb.Netcore.Skb.len);
  Netcore.netif_rx dev (Netcore.Skb.alloc 100);
  Netcore.netif_rx dev (Netcore.Skb.alloc 60);
  check "handler saw bytes" 160 !got;
  check "stats rx packets" 2 (Netcore.stats dev).Netcore.rx_packets

let test_netcore_queue_stop () =
  Boot.boot ();
  let sent = ref 0 in
  let ops =
    { null_net_ops with
      Netcore.ndo_start_xmit = (fun _ -> incr sent; Netcore.Xmit_ok)
    }
  in
  let dev = Netcore.create ~name:"eth0" ~mtu:1500 ops in
  Netcore.register_netdev dev;
  Alcotest.(check bool) "xmit while down is busy" true
    (Netcore.dev_queue_xmit dev (Netcore.Skb.alloc 64) = Netcore.Xmit_busy);
  (match Netcore.open_dev dev with Ok () -> () | Error _ -> Alcotest.fail "open");
  Netcore.netif_wake_queue dev;
  ignore (Netcore.dev_queue_xmit dev (Netcore.Skb.alloc 64));
  Netcore.netif_stop_queue dev;
  Alcotest.(check bool) "xmit while stopped is busy" true
    (Netcore.dev_queue_xmit dev (Netcore.Skb.alloc 64) = Netcore.Xmit_busy);
  check "driver saw one packet" 1 !sent

(* --- Sndcore --- *)

let null_pcm_ops pointer =
  {
    Sndcore.pcm_open = (fun () -> Ok ());
    pcm_close = ignore;
    pcm_hw_params = (fun ~rate:_ ~channels:_ ~sample_bits:_ -> Ok ());
    pcm_prepare = (fun () -> Ok ());
    pcm_trigger = (fun _ -> ());
    pcm_pointer = pointer;
  }

let test_sndcore_write_blocks_until_period () =
  Boot.boot ();
  let hw = ref 0 in
  let card = Sndcore.snd_card_new "test" in
  check "register ok" 0 (Sndcore.snd_card_register card);
  let sub = Sndcore.new_pcm card ~buffer_bytes:1000 (null_pcm_ops (fun () -> !hw)) in
  let wrote = ref 0 in
  ignore
    (Sched.spawn (fun () ->
         Sndcore.pcm_write sub 800;
         wrote := 800;
         Sndcore.pcm_write sub 800;
         (* must block until the device drains *)
         wrote := 1600));
  Sched.run ();
  check "second write blocked" 800 !wrote;
  hw := 800;
  Sndcore.period_elapsed sub;
  Sched.run ();
  check "second write completed after period" 1600 !wrote

let test_sndcore_spin_discipline_forbids_blocking () =
  Boot.boot ();
  Sndcore.set_lock_discipline Sndcore.Lock_spin;
  let ops =
    { (null_pcm_ops (fun () -> 0)) with
      Sndcore.pcm_prepare = (fun () -> Sched.sleep_ns 10; Ok ())
    }
  in
  let card = Sndcore.snd_card_new "test" in
  let sub = Sndcore.new_pcm card ~buffer_bytes:100 ops in
  let raised = ref false in
  ignore
    (Sched.spawn (fun () ->
         try ignore (Sndcore.pcm_prepare sub)
         with Sched.Would_block_in_atomic _ -> raised := true));
  Sched.run ();
  check_bool "spinlock discipline forbids blocking callbacks" true !raised

(* --- Usbcore --- *)

let test_usb_bulk_msg_roundtrip () =
  Boot.boot ();
  (* An HCD that completes bulk transfers 1 ms later. *)
  Usbcore.register_hcd ~name:"test-hcd"
    {
      Usbcore.hcd_submit_urb =
        (fun urb ->
          ignore
            (Clock.after 1_000_000 (fun () ->
                 urb.Usbcore.actual_length <- Bytes.length urb.Usbcore.buffer;
                 urb.Usbcore.status <- 0;
                 urb.Usbcore.complete urb));
          Ok ());
      hcd_frame_number = (fun () -> Clock.now () / 1_000_000);
    };
  let result = ref (Error 0) in
  ignore
    (Sched.spawn (fun () ->
         result :=
           Usbcore.bulk_msg ~direction:Usbcore.Dir_out ~endpoint:2
             (Bytes.make 512 'x')));
  Sched.run ();
  (match !result with
  | Ok n -> check "transferred" 512 n
  | Error e -> Alcotest.failf "bulk_msg failed: %d" e);
  check_bool "time advanced ~1ms" true (Clock.now () >= 1_000_000)

(* --- Inputcore --- *)

let test_input_events () =
  Boot.boot ();
  let dev = Inputcore.create ~name:"mouse0" in
  Inputcore.register dev;
  let rels = ref 0 and keys = ref 0 and syncs = ref 0 in
  Inputcore.set_handler dev (function
    | Inputcore.Rel _ -> incr rels
    | Inputcore.Key _ -> incr keys
    | Inputcore.Sync_report -> incr syncs);
  Inputcore.report_rel dev ~dx:1 ~dy:(-1);
  Inputcore.report_key dev ~code:0 ~pressed:true;
  Inputcore.sync dev;
  check "rel" 1 !rels;
  check "key" 1 !keys;
  check "sync" 1 !syncs;
  check "total" 3 (Inputcore.events_reported dev)

(* --- Modules --- *)

let test_module_init_latency () =
  run_sim (fun () ->
      let h =
        match
          Modules.insmod ~name:"fake"
            ~init:(fun () ->
              Clock.consume 2_000_000;
              Ok ())
            ~exit:ignore
        with
        | Ok h -> h
        | Error e -> Alcotest.failf "insmod failed: %d" e
      in
      check_bool "latency >= init work" true (Modules.init_latency_ns h >= 2_000_000);
      check_bool "loaded" true (Modules.is_loaded "fake");
      Modules.rmmod h;
      check_bool "unloaded" false (Modules.is_loaded "fake"))

let test_module_failed_init () =
  run_sim (fun () ->
      match Modules.insmod ~name:"bad" ~init:(fun () -> Error (-19)) ~exit:ignore with
      | Ok _ -> Alcotest.fail "expected failure"
      | Error e ->
          check "errno" (-19) e;
          check_bool "not loaded" false (Modules.is_loaded "bad"))

(* --- Boot --- *)

let test_boot_quiescent () =
  run_sim (fun () -> ());
  (match Quiesce.check () with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "not quiescent: %s" msg);
  Boot.boot ();
  ignore (Sched.spawn (fun () -> Kmem.alloc ~tag:"leak" 16 |> ignore));
  Sched.run ();
  check_bool "leak detected" true (Result.is_error (Quiesce.check ()))

(* --- Properties --- *)

let prop_semaphore_conservation =
  QCheck.Test.make ~name:"semaphore count conserved across contention" ~count:50
    QCheck.(pair (int_range 1 5) (int_range 1 20))
    (fun (initial, threads) ->
      Boot.boot ();
      let s = Sync.Semaphore.create initial in
      let inside = ref 0 and max_inside = ref 0 in
      for _ = 1 to threads do
        ignore
          (Sched.spawn (fun () ->
               Sync.Semaphore.down s;
               incr inside;
               max_inside := max !max_inside !inside;
               Sched.sleep_ns 100;
               decr inside;
               Sync.Semaphore.up s))
      done;
      Sched.run ();
      !max_inside <= initial && Sync.Semaphore.count s = initial)

let prop_clock_events_never_run_early =
  QCheck.Test.make ~name:"clock events never fire before their due time" ~count:100
    QCheck.(small_list (int_range 0 10_000))
    (fun delays ->
      Boot.boot ();
      let ok = ref true in
      List.iter
        (fun d ->
          let due = Clock.now () + d in
          ignore (Clock.at due (fun () -> if Clock.now () < due then ok := false)))
        delays;
      Clock.consume 20_000;
      !ok)

let prop_waitq_wake_all_counts =
  QCheck.Test.make ~name:"waitq wake_all wakes exactly the waiters" ~count:50
    QCheck.(int_range 0 20)
    (fun n ->
      Boot.boot ();
      let q = Sync.Waitq.create () in
      let woken = ref 0 in
      for _ = 1 to n do
        ignore
          (Sched.spawn (fun () ->
               Sync.Waitq.wait q;
               incr woken))
      done;
      Sched.run ();
      let reported = Sync.Waitq.wake_all q in
      Sched.run ();
      reported = n && !woken = n)

let prop_busy_never_exceeds_elapsed =
  (* interrupt handlers preempt busy work; their time must extend the
     elapsed window, never double-count into it *)
  QCheck.Test.make ~name:"utilization can never exceed 100%" ~count:100
    QCheck.(small_list (pair (int_range 0 5_000) (int_range 0 3_000)))
    (fun work ->
      Boot.boot ();
      List.iter
        (fun (delay, handler_cost) ->
          ignore (Clock.after delay (fun () -> Clock.consume handler_cost)))
        work;
      List.iter (fun (d, _) -> Clock.consume (d / 2)) work;
      Clock.consume 10_000;
      Clock.busy_ns () <= Clock.now ())

(* --- Faultinject --- *)

let test_fi_span_trigger () =
  run_sim (fun () ->
      Faultinject.arm ~seed:1
        [
          Faultinject.spec ~site:"t" ~kind:Faultinject.Alloc_fail
            ~trigger:(Faultinject.Span (2, 3))
            ();
        ];
      let pattern =
        List.init 6 (fun _ -> Faultinject.fires ~site:"t" Faultinject.Alloc_fail)
      in
      Alcotest.(check (list bool))
        "fires on accesses 2..4"
        [ false; true; true; true; false; false ]
        pattern;
      check "three injections recorded" 3 (Faultinject.injected_count ());
      check_bool "other sites unaffected" false
        (Faultinject.fires ~site:"other" Faultinject.Alloc_fail);
      Faultinject.disarm ();
      check_bool "quiet after disarm" false
        (Faultinject.fires ~site:"t" Faultinject.Alloc_fail);
      check "counters survive disarm for reporting" 3
        (Faultinject.injected_count ()))

let test_fi_stuck_reads_respect_addr () =
  run_sim (fun () ->
      let region =
        Io.register_ports ~base:0x500 ~len:4
          ~read:(fun _ _ -> 0x5a)
          ~write:(fun _ _ _ -> ())
      in
      Faultinject.arm ~seed:2
        [
          Faultinject.spec ~addr:0x500 ~site:"io.port"
            ~kind:Faultinject.Stuck_ones ~trigger:Faultinject.Always ();
          Faultinject.spec ~addr:0x502 ~site:"io.port"
            ~kind:Faultinject.Stuck_zero ~trigger:Faultinject.Always ();
        ];
      check "stuck-ones masked to access width" 0xff (Io.inb 0x500);
      check "stuck-zero" 0 (Io.inb 0x502);
      check "other address reads clean" 0x5a (Io.inb 0x501);
      Faultinject.disarm ();
      check "clean after disarm" 0x5a (Io.inb 0x500);
      Io.release region)

let test_fi_bad_read_flips_one_bit () =
  run_sim (fun () ->
      let armed () =
        Faultinject.arm ~seed:5
          [
            Faultinject.spec ~site:"hw.eeprom" ~kind:Faultinject.Bad_read
              ~trigger:Faultinject.Always ();
          ]
      in
      armed ();
      let v = Faultinject.filter_read ~site:"hw.eeprom" ~addr:3 0xa5 in
      let diff = v lxor 0xa5 in
      check_bool "exactly one bit flipped" true
        (diff <> 0 && diff land (diff - 1) = 0);
      (* deterministic: the same seed corrupts the same bit *)
      armed ();
      check "same seed, same corruption" v
        (Faultinject.filter_read ~site:"hw.eeprom" ~addr:3 0xa5);
      Faultinject.disarm ())

let test_fi_prob_deterministic () =
  run_sim (fun () ->
      let draw () =
        Faultinject.arm ~seed:11
          [
            Faultinject.spec ~site:"p" ~kind:Faultinject.Link_flap
              ~trigger:(Faultinject.Prob 0.3) ();
          ];
        let v =
          List.init 50 (fun _ -> Faultinject.fires ~site:"p" Faultinject.Link_flap)
        in
        Faultinject.disarm ();
        v
      in
      let a = draw () and b = draw () in
      Alcotest.(check (list bool)) "same seed, same pattern" a b;
      check_bool "some fire" true (List.mem true a);
      check_bool "some do not" true (List.mem false a))

let test_fi_dma_alloc_hook () =
  run_sim (fun () ->
      Faultinject.arm ~seed:4
        [
          Faultinject.spec ~site:"dma.alloc" ~kind:Faultinject.Alloc_fail
            ~trigger:(Faultinject.Span (1, 1))
            ();
        ];
      check_bool "first DMA allocation fails" true
        (match Dma.alloc_coherent ~tag:"t" 64 with
        | None -> true
        | Some _ -> false);
      check_bool "second succeeds" true
        (match Dma.alloc_coherent ~tag:"t" 64 with
        | None -> false
        | Some _ -> true);
      check "the failure was recorded" 1 (Faultinject.injected_count ());
      Faultinject.disarm ())

let test_fi_boot_resets () =
  Boot.boot ();
  Faultinject.arm ~seed:9
    [
      Faultinject.spec ~site:"x" ~kind:Faultinject.Alloc_fail
        ~trigger:Faultinject.Always ();
    ];
  ignore (Faultinject.fires ~site:"x" Faultinject.Alloc_fail);
  Boot.boot ();
  check_bool "plan disarmed by boot" false (Faultinject.active ());
  check "counters cleared by boot" 0 (Faultinject.injected_count ())

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_semaphore_conservation;
      prop_clock_events_never_run_early;
      prop_clock_queue_model;
      prop_waitq_wake_all_counts;
      prop_busy_never_exceeds_elapsed;
    ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "decaf_kernel"
    [
      ( "clock",
        [
          tc "consume advances time and busy" test_clock_consume;
          tc "events fire in order" test_clock_event_order;
          tc "cancel" test_clock_cancel;
          tc "recurring events" test_clock_event_reschedules;
          tc "utilization" test_clock_utilization;
          tc "same due time is FIFO" test_clock_same_due_fifo;
          tc "stale ids survive reset" test_clock_stale_id_across_reset;
          tc "queue model, cancel-heavy with compaction"
            test_clock_queue_model_compaction;
          tc "tracked events" test_clock_tracked_events;
        ] );
      ( "latency",
        [
          tc "bucket exactness" test_latency_bucket_exactness;
          tc "small-sample percentiles" test_latency_percentiles_small;
          tc "merge" test_latency_merge;
          tc "overflow accounting" test_latency_overflow;
          tc "boot reuses histograms" test_latency_boot_reuses;
        ] );
      ( "sched",
        [
          tc "yield interleaves" test_sched_yield_interleaves;
          tc "sleep orders by time" test_sched_sleep_orders_by_time;
          tc "suspend/wake once" test_sched_suspend_wake;
          tc "run until deadline" test_sched_until_ns;
        ] );
      ( "sync",
        [
          tc "no blocking under spinlock" test_spinlock_blocks_forbidden;
          tc "spinlock self deadlock" test_spinlock_self_deadlock;
          tc "semaphore blocks and wakes" test_semaphore_blocks_and_wakes;
          tc "mutex recursion" test_mutex_recursion_bug;
          tc "completion" test_completion;
          tc "combolock kernel fast path" test_combolock_kernel_fast_path;
          tc "combolock converts for user" test_combolock_user_converts_to_semaphore;
          tc "combolock contention accounting"
            test_combolock_contention_accounting;
        ] );
      ( "irq",
        [
          tc "basic delivery" test_irq_basic_delivery;
          tc "disable defers and coalesces" test_irq_disable_defers;
          tc "cpu mask defers" test_irq_masked_cpu_defers;
          tc "spurious" test_irq_spurious;
        ] );
      ( "timer",
        [
          tc "fires at high priority" test_timer_fires_at_high_priority;
          tc "del_timer" test_timer_del;
          tc "rearm" test_timer_rearm;
          tc "rearm 100k times" test_timer_rearm_many;
        ] );
      ( "workqueue",
        [
          tc "process context" test_workqueue_runs_in_process_context;
          tc "defer from timer" test_workqueue_from_timer;
        ] );
      ( "kmem",
        [
          tc "leak tracking" test_kmem_leak_tracking;
          tc "double free" test_kmem_double_free;
          tc "failure injection" test_kmem_injection;
          tc "GFP_KERNEL in irq" test_kmem_gfp_kernel_in_irq_is_bug;
        ] );
      ( "dma",
        [
          tc "alloc/free" test_dma_alloc_free;
          tc "distinct mappings" test_dma_mappings_distinct;
          tc "failure injection" test_dma_respects_injection;
        ] );
      ( "io",
        [ tc "dispatch" test_io_dispatch; tc "overlap rejected" test_io_overlap_rejected ] );
      ( "pci",
        [
          tc "probe on add" test_pci_probe_on_add;
          tc "probe on register" test_pci_probe_on_register;
          tc "config space" test_pci_config_space;
        ] );
      ( "netcore",
        [ tc "rx path" test_netcore_rx_path; tc "queue stop" test_netcore_queue_stop ] );
      ( "sndcore",
        [
          tc "write blocks until period" test_sndcore_write_blocks_until_period;
          tc "spin discipline forbids blocking" test_sndcore_spin_discipline_forbids_blocking;
        ] );
      ("usbcore", [ tc "bulk_msg roundtrip" test_usb_bulk_msg_roundtrip ]);
      ("inputcore", [ tc "events" test_input_events ]);
      ( "modules",
        [
          tc "init latency" test_module_init_latency;
          tc "failed init" test_module_failed_init;
        ] );
      ("boot", [ tc "quiescence check" test_boot_quiescent ]);
      ( "faultinject",
        [
          tc "span trigger" test_fi_span_trigger;
          tc "stuck reads, addr filtered" test_fi_stuck_reads_respect_addr;
          tc "bad read flips one bit" test_fi_bad_read_flips_one_bit;
          tc "prob trigger deterministic" test_fi_prob_deterministic;
          tc "dma alloc hook" test_fi_dma_alloc_hook;
          tc "boot resets the plan" test_fi_boot_resets;
        ] );
      ("properties", qcheck_cases);
    ]
