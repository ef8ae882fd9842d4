let check () =
  let problems = ref [] in
  let add fmt = Format.kasprintf (fun s -> problems := s :: !problems) fmt in
  if Sched.runnable_count () > 0 then
    add "%d threads still runnable" (Sched.runnable_count ());
  (match Kmem.outstanding () with
  | 0, _ -> ()
  | n, b ->
      let tags =
        Kmem.leaks () |> List.map fst |> String.concat ", "
      in
      add "%d allocations (%d bytes) leaked: %s" n b tags);
  (match Modules.loaded () with
  | [] -> ()
  | ms -> add "modules still loaded: %s" (String.concat ", " ms));
  match !problems with
  | [] -> Ok ()
  | ps -> Error (String.concat "; " (List.rev ps))
