type t = int array

let bits = Sys.int_size
let words n = (n + bits - 1) / bits
let create n = Array.make (words n) 0
let mem t i = (t.(i / bits) lsr (i mod bits)) land 1 <> 0

let add t i =
  let w = i / bits in
  t.(w) <- t.(w) lor (1 lsl (i mod bits))

let remove t i =
  let w = i / bits in
  t.(w) <- t.(w) land lnot (1 lsl (i mod bits))

let popcount w =
  let w = ref w and c = ref 0 in
  while !w <> 0 do
    w := !w land (!w - 1);
    incr c
  done;
  !c

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t

let iter_word f base w =
  let w = ref w and j = ref base in
  while !w <> 0 do
    if !w land 1 <> 0 then f !j;
    w := !w lsr 1;
    incr j
  done

let iter f t = Array.iteri (fun k w -> if w <> 0 then iter_word f (k * bits) w) t
