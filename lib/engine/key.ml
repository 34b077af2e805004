let source_digest = Source_digest.digest
let version_salt = "rbp-engine/2+" ^ source_digest

let encode parts =
  let b = Buffer.create 256 in
  let add s =
    Buffer.add_string b (string_of_int (String.length s));
    Buffer.add_char b ':';
    Buffer.add_string b s
  in
  add version_salt;
  List.iter
    (fun (label, value) ->
      add label;
      add value)
    parts;
  Buffer.contents b

let make parts = Digest.to_hex (Digest.string (encode parts))
