type t = { dir : string }

let default_dir = "_rbp_cache"
let dir t = t.dir
let open_ ?(dir = default_dir) () = { dir }

(* Two-level fan-out: 256 buckets keeps directories small even for a
   full-suite sweep per machine config. *)
let path_of t key =
  let bucket = String.sub key 0 (min 2 (String.length key)) in
  let rest = String.sub key (min 2 (String.length key)) (max 0 (String.length key - 2)) in
  Filename.concat (Filename.concat t.dir bucket) (rest ^ ".json")

(* An unreadable entry (a directory in its place, say) is a miss. *)
let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic -> (
      match really_input_string ic (in_channel_length ic) with
      | s ->
          close_in ic;
          Some s
      | exception (Sys_error _ | End_of_file) ->
          close_in_noerr ic;
          None)

(* Entries are wrapped in an integrity envelope
   [{"sum": md5(payload bytes), "payload": ...}]. Content addressing
   guarantees an entry can never be the answer to the wrong question,
   but not that its bytes survived the disk: a truncated or bit-flipped
   file could otherwise still parse as JSON and decode into a wrong
   result. The digest is over the canonical serialization of the
   payload, so any flip that survives the parser either changes the
   re-serialized bytes (digest mismatch) or the envelope shape — both
   degrade to a miss, counted on [engine.cache_corrupt].

   [seal] writes the envelope's text around the payload's one
   serialization: the bytes [Obs.Json.to_string] gives the envelope
   object (a hex digest needs no escaping), plus a newline. *)
let seal payload =
  let body = Obs.Json.to_string payload in
  String.concat ""
    [ {|{"sum":"|}; Digest.to_hex (Digest.string body); {|","payload":|}; body; "}\n" ]

let unseal j =
  match (Obs.Json.member "sum" j, Obs.Json.member "payload" j) with
  | Some (Obs.Json.Str sum), Some payload
    when String.equal sum (Digest.to_hex (Digest.string (Obs.Json.to_string payload))) ->
      Some payload
  | _ -> None

let find ?obs t ~key =
  match read_file (path_of t key) with
  | None -> None
  | Some text -> (
      let corrupt () =
        Obs.Trace.incr obs Obs.Counter.Engine_cache_corrupt 1;
        None
      in
      match Obs.Json.of_string text with
      | Error _ -> corrupt ()
      | Ok j -> ( match unseal j with Some payload -> Some payload | None -> corrupt ()))

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    let parent = Filename.dirname d in
    if parent <> d then mkdir_p parent;
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

let store t ~key json =
  let path = path_of t key in
  let text = seal json in
  match
    mkdir_p (Filename.dirname path);
    Filename.open_temp_file ~mode:[ Open_binary ] ~temp_dir:(Filename.dirname path) "entry"
      ".tmp"
  with
  | exception Sys_error _ -> ()
  | tmp, oc -> (
      try
        output_string oc text;
        close_out oc;
        Sys.rename tmp path
      with Sys_error _ -> (
        (* A failed write or rename must not leave its temp file behind. *)
        close_out_noerr oc;
        try Sys.remove tmp with Sys_error _ -> ()))

type stats = { entries : int; bytes : int }

let iter_entries dir f =
  if Sys.file_exists dir && Sys.is_directory dir then
    Array.iter
      (fun bucket ->
        let bdir = Filename.concat dir bucket in
        if Sys.is_directory bdir then
          Array.iter
            (fun file ->
              if Filename.check_suffix file ".json" then f (Filename.concat bdir file))
            (Sys.readdir bdir))
      (Sys.readdir dir)

let stat ?(dir = default_dir) () =
  let entries = ref 0 and bytes = ref 0 in
  iter_entries dir (fun path ->
      incr entries;
      match open_in_bin path with
      | exception Sys_error _ -> ()
      | ic ->
          bytes := !bytes + in_channel_length ic;
          close_in ic);
  { entries = !entries; bytes = !bytes }

let clear ?(dir = default_dir) () =
  let removed = ref 0 in
  iter_entries dir (fun path ->
      try
        Sys.remove path;
        incr removed
      with Sys_error _ -> ());
  if Sys.file_exists dir && Sys.is_directory dir then
    Array.iter
      (fun bucket ->
        let bdir = Filename.concat dir bucket in
        if Sys.is_directory bdir && Array.length (Sys.readdir bdir) = 0 then
          try Sys.rmdir bdir with Sys_error _ -> ())
      (Sys.readdir dir);
  !removed
