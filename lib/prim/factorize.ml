let is_prime n =
  if n <= 1 then false
  else if n <= 3 then true
  else if n mod 2 = 0 || n mod 3 = 0 then false
  else
    let rec loop i =
      if i * i > n then true
      else if n mod i = 0 || n mod (i + 2) = 0 then false
      else loop (i + 6)
    in
    loop 5

let prime_factors n =
  if n < 1 then invalid_arg "Factorize.prime_factors: n < 1";
  let rec strip n p acc = if n mod p = 0 then strip (n / p) p (p :: acc) else (n, acc) in
  let rec loop n p acc =
    if n = 1 then List.rev acc
    else if p * p > n then List.rev (n :: acc)
    else
      let n', acc' = strip n p acc in
      loop n' (if p = 2 then 3 else p + 2) acc'
  in
  loop n 2 []

let grouped_factors n =
  let fs = prime_factors n in
  let rec group = function
    | [] -> []
    | p :: rest ->
      let same, others = List.partition (Int.equal p) rest in
      (p, 1 + List.length same) :: group others
  in
  group fs

(* Divide out every p in 2..max_prime (composites never divide once their
   prime factors are gone): allocation-free, as [Mapping.validate] pads all
   seven loop bounds on every call. *)
let smooth max_prime n =
  let rec strip n p = if n mod p = 0 then strip (n / p) p else n in
  let rec go n p = if p > max_prime then n = 1 else go (strip n p) (p + 1) in
  go n 2

let pad_to_factorable ?(max_prime = 7) n =
  if n < 1 then invalid_arg "Factorize.pad_to_factorable: n < 1";
  let rec loop m = if smooth max_prime m then m else loop (m + 1) in
  loop n

let divisors n =
  if n < 1 then invalid_arg "Factorize.divisors: n < 1";
  let rec loop i acc_lo acc_hi =
    if i * i > n then List.rev_append acc_lo acc_hi
    else if n mod i = 0 then
      let acc_hi = if i * i = n then acc_hi else (n / i) :: acc_hi in
      loop (i + 1) (i :: acc_lo) acc_hi
    else loop (i + 1) acc_lo acc_hi
  in
  loop 1 [] []

let product = List.fold_left ( * ) 1
