(* In-memory spans around the public calls the benchmark makes.

   Spans are recorded only in the traced run. Each carries a name, its
   host CPU start and end, the span that was open when it began, the
   op id it belongs to (-1 for set-up and teardown), and a handful of
   layer counters read at both boundaries, so ratios are taken where
   the work happens. Nothing is written until the run ends. *)

module K = Decaf_kernel
module Xpc = Decaf_xpc

type counters = {
  virt_ns : int;  (** Clock.now *)
  busy_ns : int;  (** Clock.busy_ns *)
  events : int;  (** Clock.scheduled *)
  crossings : int;  (** kernel/user crossings *)
  bytes : int;  (** bytes marshaled *)
}

let read () =
  let c = Xpc.Channel.stats () in
  {
    virt_ns = K.Clock.now ();
    busy_ns = K.Clock.busy_ns ();
    events = K.Clock.scheduled ();
    crossings = c.Xpc.Channel.kernel_user_calls;
    bytes = c.Xpc.Channel.bytes_marshaled;
  }

type t = {
  id : int;
  name : string;
  op : int;
  parent : int;  (** -1 at top level *)
  t0 : float;  (** host CPU s *)
  mutable t1 : float;
  c0 : counters;
  mutable c1 : counters;
  mutable child_s : float;  (** host time covered by direct children *)
}

let on = ref false
let spans : t list ref = ref []
let count = ref 0
let stack : t list ref = ref []

let reset () =
  spans := [];
  count := 0;
  stack := []

(* [wrap name ~op f] runs [f] inside a span when tracing is on. *)
let wrap ?(op = -1) name f =
  if not !on then f ()
  else begin
    let parent = match !stack with p :: _ -> p.id | [] -> -1 in
    let c0 = read () in
    let s =
      {
        id = !count;
        name;
        op;
        parent;
        t0 = Stats.cpu ();
        t1 = 0.;
        c0;
        c1 = c0;
        child_s = 0.;
      }
    in
    incr count;
    stack := s :: !stack;
    let close () =
      s.t1 <- Stats.cpu ();
      s.c1 <- read ();
      (stack := match !stack with _ :: rest -> rest | [] -> []);
      (match !stack with
      | p :: _ -> p.child_s <- p.child_s +. (s.t1 -. s.t0)
      | [] -> ());
      spans := s :: !spans
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

let self_s s = max 0. (s.t1 -. s.t0 -. s.child_s)

(* Self time per span name, largest first: (name, calls, total, self). *)
let by_name () =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let n, tot, self =
        Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt tbl s.name)
      in
      Hashtbl.replace tbl s.name (n + 1, tot +. (s.t1 -. s.t0), self +. self_s s))
    !spans;
  Hashtbl.fold (fun name (n, tot, self) acc -> (name, n, tot, self) :: acc) tbl []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Chrome trace-event JSON ("X" complete events, timestamps in host
   CPU microseconds), which Perfetto and chrome://tracing open offline.
   At most [limit] spans are written, earliest first; the self-time
   table covers every span. *)
let write_chrome ~path ~limit ~meta =
  let all = List.rev !spans in
  let all = List.filteri (fun i _ -> i < limit) all in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc "{\"displayTimeUnit\":\"ns\",\"otherData\":{";
      output_string oc
        (String.concat ","
           (List.map
              (fun (k, v) ->
                Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v))
              meta));
      output_string oc "},\"traceEvents\":[";
      List.iteri
        (fun i s ->
          if i > 0 then output_string oc ",\n";
          Printf.fprintf oc
            "{\"name\":\"%s\",\"cat\":\"bench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"op\":%d,\"self_us\":%.3f,\"virt_ns\":%d,\"busy_ns\":%d,\"events\":%d,\"crossings\":%d,\"bytes\":%d}}"
            (json_escape s.name) (s.t0 *. 1e6)
            ((s.t1 -. s.t0) *. 1e6)
            s.id s.parent s.op
            (self_s s *. 1e6)
            (s.c1.virt_ns - s.c0.virt_ns)
            (s.c1.busy_ns - s.c0.busy_ns)
            (s.c1.events - s.c0.events)
            (s.c1.crossings - s.c0.crossings)
            (s.c1.bytes - s.c0.bytes))
        all;
      output_string oc "]}\n")
