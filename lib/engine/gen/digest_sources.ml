(* Usage: digest_sources DIR OUT. Write to OUT the module behind
   [Engine.Key.source_digest]: the hex MD5 over every .ml / .mli file
   under DIR, each contributing its path and content digest in sorted
   path order — a function of the sources alone, so clean and
   incremental builds agree. OUT is written after the walk and never
   digests itself. *)

let rec sources dir =
  Sys.readdir dir |> Array.to_list
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         if Sys.is_directory path then sources path
         else if Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli" then
           [ path ]
         else [])

let () =
  let line path = path ^ "\000" ^ Digest.to_hex (Digest.file path) in
  let all = String.concat "\n" (List.map line (List.sort compare (sources Sys.argv.(1)))) in
  Out_channel.with_open_text Sys.argv.(2) (fun oc ->
      Printf.fprintf oc "let digest = %S\n" (Digest.to_hex (Digest.string all)))
