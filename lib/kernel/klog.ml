type level = Emerg | Err | Warning | Info | Debug

let level_tag = function
  | Emerg -> "EMERG"
  | Err -> "ERR"
  | Warning -> "WARN"
  | Info -> "INFO"
  | Debug -> "DEBUG"

type entry = { level : level; text : string }

let buffer : entry Queue.t = Queue.create ()
let capacity = 16_384
let timestamp_of = ref (fun () -> 0)

(* Clock depends on nothing; Klog must not depend on Clock to avoid a
   cycle, so Clock installs the timestamp source at module init. *)
let set_timestamp_source f = timestamp_of := f

let printk level fmt =
  let k text =
    if Queue.length buffer >= capacity then ignore (Queue.pop buffer);
    let ts = !timestamp_of () in
    let text = Printf.sprintf "[%10.6f] %s" (float_of_int ts /. 1e9) text in
    Queue.push { level; text } buffer
  in
  Format.kasprintf k fmt

let dmesg () =
  Queue.fold
    (fun acc e -> Printf.sprintf "<%s>%s" (level_tag e.level) e.text :: acc)
    [] buffer
  |> List.rev

let clear () = Queue.clear buffer
let () = Boot.on_boot clear

let count level =
  Queue.fold (fun n e -> if e.level = level then n + 1 else n) 0 buffer
