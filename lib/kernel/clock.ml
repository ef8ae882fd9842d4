let time = ref 0
let busy = ref 0
let seq = ref 0
let boot_seq = ref 0

let now () = !time
let busy_ns () = !busy

let utilization ~since ~busy_since =
  let window = !time - since in
  if window <= 0 then 0.
  else float_of_int (!busy - busy_since) /. float_of_int window

(* --- the event queue ----------------------------------------------------

   A mutable binary min-heap of entries ordered by (due, seq) with
   integer compares. (due, seq) is the only firing order: events
   scheduled for the same due time fire in scheduling order (FIFO),
   because [seq] is assigned monotonically by [at] and never reset — not
   even across a boot. An entry is its own event id.

   Cancellation is lazy: [cancel] only marks the entry dead, and a dead
   entry is dropped when it surfaces at the root. So that a timer
   re-armed over and over cannot grow the heap, a cancel that leaves
   dead entries outnumbering live ones compacts the heap (dead entries
   filtered out, then re-heapified). Only cancels make dead entries, so
   there are never more of them than the most events ever pending at
   once, and each compaction is paid for by the cancels that made its
   dead entries. *)

type entry = { due : int; seq : int; f : unit -> unit; mutable live : bool }
type event_id = entry

(* Fills empty slots and stands for "no event" when the queue is empty,
   so peeking never allocates. Never live. *)
let none = { due = max_int; seq = max_int; f = ignore; live = false }
let heap = ref (Array.make 64 none)
let size = ref 0 (* heap slots in use, live and dead *)
let live = ref 0

let before a b = a.due < b.due || (a.due = b.due && a.seq < b.seq)

(* Both sifts move a hole rather than swapping, and place [e] last. *)
let rec sift_up h e i =
  let p = (i - 1) / 2 in
  if i > 0 && before e h.(p) then begin
    h.(i) <- h.(p);
    sift_up h e p
  end
  else h.(i) <- e

let rec sift_down h n e i =
  let l = (2 * i) + 1 in
  if l >= n then h.(i) <- e
  else
    let c = if l + 1 < n && before h.(l + 1) h.(l) then l + 1 else l in
    if before h.(c) e then begin
      h.(i) <- h.(c);
      sift_down h n e c
    end
    else h.(i) <- e

let push e =
  let n = !size in
  if n = Array.length !heap then begin
    let grown = Array.make (2 * n) none in
    Array.blit !heap 0 grown 0 n;
    heap := grown
  end;
  sift_up !heap e n;
  size := n + 1

let drop_root () =
  let h = !heap in
  let n = !size - 1 in
  let last = h.(n) in
  h.(n) <- none;
  size := n;
  if n > 0 then sift_down h n last 0

let compact () =
  let h = !heap in
  let n = ref 0 in
  for i = 0 to !size - 1 do
    let e = h.(i) in
    if e.live then begin
      h.(!n) <- e;
      incr n
    end
  done;
  Array.fill h !n (!size - !n) none;
  size := !n;
  for i = (!n / 2) - 1 downto 0 do
    sift_down h !n h.(i) i
  done

let retire e =
  e.live <- false;
  decr live

(* The earliest live entry, or [none]; dead roots are dropped on the way. *)
let rec top () =
  if !size = 0 then none
  else
    let e = !heap.(0) in
    if e.live then e
    else begin
      drop_root ();
      top ()
    end

(* Remove the root [e] (just returned by [top]) and advance to its due
   time. *)
let take e =
  drop_root ();
  retire e;
  if e.due > !time then time := e.due

(* Run every event due at or before [t], in due order. An event callback
   may itself consume time or schedule new events; events that become due
   as a result are delivered too. *)
let rec deliver_until t =
  let e = top () in
  if e.live && e.due <= t then begin
    take e;
    e.f ();
    deliver_until (Int.max t !time)
  end

(* Busy work is preemptible: an event (interrupt) due mid-interval runs
   at its due time, and the interrupted work's remaining duration resumes
   afterwards — so elapsed time always covers the handler's own
   consumption and utilization can never exceed 100%. *)
let consume ns =
  if ns < 0 then Panic.bug "Clock.consume: negative duration %d" ns;
  busy := !busy + ns;
  let remaining = ref ns in
  while !remaining > 0 do
    let e = top () in
    if e.live && e.due <= !time + !remaining then begin
      remaining := !remaining - Int.max 0 (e.due - !time);
      take e;
      e.f ()
    end
    else begin
      time := !time + !remaining;
      remaining := 0
    end
  done

let scheduled () = !seq - !boot_seq

let at t f =
  incr seq;
  let e = { due = Int.max t !time; seq = !seq; f; live = true } in
  push e;
  incr live;
  e

let after ns f = at (!time + ns) f

let cancel e =
  if e.live then begin
    retire e;
    if !size - !live > !live then compact ()
  end

let pending e = e.live
let has_events () = !live > 0
let queued () = !size

let advance_to_next_event () =
  let e = top () in
  if not e.live then false
  else begin
    if e.due > !time then time := e.due;
    deliver_until !time;
    true
  end

(* --- tracked events ---------------------------------------------------

   A tracked event is a birth stamp paired with a completion stamp; the
   elapsed virtual time lands in the per-path histogram registry
   ({!Latency}). Two shapes:

   - [track]/[complete]: an explicit handle, for code that can carry the
     birth stamp alongside the object it describes (an irq line, a ring
     slot, a batch item).
   - [track_begin]/[track_end]: FIFO-paired stamps for pipelines that
     preserve order but lose identity (a NIC's rx fifo, the mouse byte
     stream); the oldest outstanding birth completes first. *)

type track = { t_path : string; t_born : int }

let track path = { t_path = path; t_born = !time }

let complete tr =
  let dt = Int.max 0 (!time - tr.t_born) in
  Latency.observe_path tr.t_path dt;
  dt

(* Each FIFO is bounded: a producer whose consumer died (an ejected
   device mid-storm) must not grow births without limit, so past the cap
   the oldest birth is discarded. *)
let fifo_cap = 65_536
let span_fifos : (string, int Queue.t) Hashtbl.t = Hashtbl.create 16

let span_fifo key =
  match Hashtbl.find_opt span_fifos key with
  | Some q -> q
  | None ->
      let q = Queue.create () in
      Hashtbl.replace span_fifos key q;
      q

let track_begin ?key path =
  let q = span_fifo (Option.value ~default:path key) in
  if Queue.length q >= fifo_cap then ignore (Queue.pop q);
  Queue.push !time q

let track_end ?key path =
  match Hashtbl.find_opt span_fifos (Option.value ~default:path key) with
  | None -> None
  | Some q -> (
      match Queue.take_opt q with
      | None -> None
      | Some born ->
          let dt = Int.max 0 (!time - born) in
          Latency.observe_path path dt;
          Some dt)

let track_discard ?key path =
  match Hashtbl.find_opt span_fifos (Option.value ~default:path key) with
  | None -> ()
  | Some q -> ignore (Queue.take_opt q)

(* Hotplug can orphan every outstanding birth at once (the device that
   stamped them is gone); draining keeps later completions from pairing
   with births that predate the replug. *)
let track_drain ?key path =
  match Hashtbl.find_opt span_fifos (Option.value ~default:path key) with
  | None -> ()
  | Some q -> Queue.clear q

let tracks_in_flight () =
  Hashtbl.fold (fun _ q acc -> acc + Queue.length q) span_fifos 0

let reset () =
  (* Stale ids from this boot must read not-pending and must not be able
     to cancel anything, so every queued entry is retired. *)
  let h = !heap in
  for i = 0 to !size - 1 do
    h.(i).live <- false;
    h.(i) <- none
  done;
  size := 0;
  live := 0;
  time := 0;
  busy := 0;
  (* [seq] is deliberately NOT reset: it keeps counting across boots,
     and [scheduled] reads it relative to [boot_seq]. *)
  boot_seq := !seq;
  Hashtbl.reset span_fifos;
  Latency.reset ()
let () = Boot.on_boot reset

let () = Klog.set_timestamp_source now
