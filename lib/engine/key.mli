(** Stable content-addressed cache keys.

    A key is the hex digest of an unambiguous encoding of labelled
    fingerprint parts plus {!version_salt}. Two keys are equal exactly
    when every part is equal (up to digest collision, which the qcheck
    suite treats as impossible in practice): each part is
    length-prefixed, so no concatenation of distinct part lists can
    produce the same encoding.

    Callers build the parts from {e content}, never from file names or
    timestamps: the loop IR text, the machine description, the pipeline
    options. Anything that changes the pipeline's answer must appear in
    some part — or in the salt. *)

val source_digest : string
(** Hex MD5 of every [.ml] / [.mli] file under [lib/], computed when the
    library is built (a dune rule over the source tree), so it costs
    nothing at run time and a clean and an incremental build of the same
    tree agree. *)

val version_salt : string
(** Folded into every key: ["rbp-engine/2+"] then {!source_digest}.
    Any edit to the library sources therefore changes every key, and
    results computed by other code (an older checkout, a pipeline
    change under test) always miss — the correct, conservative
    invalidation, with nothing to remember to bump. The ["rbp-engine/2"]
    prefix names the entry format; bump it only when the cache entry
    envelope itself changes. *)

val encode : (string * string) list -> string
(** The injective pre-digest encoding (exposed for the collision
    property tests): [salt] then each [(label, value)] pair with both
    components length-prefixed. *)

val make : (string * string) list -> string
(** [make parts] is the hex MD5 digest of [encode parts] — 32 lowercase
    hex characters, safe as a file name. *)
