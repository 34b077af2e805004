type kind = Flow | Anti | Output | Mem of kind_mem
and kind_mem = Mem_flow | Mem_anti | Mem_output

type t = { kind : kind; latency : int; distance : int }

let make ~kind ~latency ~distance =
  if latency < 0 then invalid_arg "Dep.make: negative latency";
  if distance < 0 then invalid_arg "Dep.make: negative distance";
  { kind; latency; distance }

let kind t = t.kind
let latency t = t.latency
let distance t = t.distance
let is_loop_carried t = t.distance > 0

let kind_rank = function
  | Flow -> 0
  | Anti -> 1
  | Output -> 2
  | Mem Mem_flow -> 3
  | Mem Mem_anti -> 4
  | Mem Mem_output -> 5

let kind_of_rank = function
  | 0 -> Flow
  | 1 -> Anti
  | 2 -> Output
  | 3 -> Mem Mem_flow
  | 4 -> Mem Mem_anti
  | _ -> Mem Mem_output

let kind_to_string = function
  | Flow -> "flow"
  | Anti -> "anti"
  | Output -> "output"
  | Mem Mem_flow -> "mem-flow"
  | Mem Mem_anti -> "mem-anti"
  | Mem Mem_output -> "mem-output"

let to_string t =
  Printf.sprintf "%s(lat=%d,dist=%d)" (kind_to_string t.kind) t.latency t.distance

let pp ppf t = Format.pp_print_string ppf (to_string t)
