open Arnet_paths

type t = { capacities : int array; reserves : int array; zeros : int array }

let make ~capacities ~reserves =
  if Array.length capacities <> Array.length reserves then
    invalid_arg "Admission.make: length mismatch";
  Array.iteri
    (fun k r ->
      if r < 0 || r > capacities.(k) then
        invalid_arg "Admission.make: reserve out of range")
    reserves;
  { capacities = Array.copy capacities;
    reserves = Array.copy reserves;
    zeros = Array.make (Array.length capacities) 0 }

let unprotected ~capacities =
  make ~capacities ~reserves:(Array.make (Array.length capacities) 0)

let capacities t = Array.copy t.capacities
let reserves t = Array.copy t.reserves

let link_admits_primary t ~occupancy k = occupancy.(k) < t.capacities.(k)

let link_admits_alternate t ~occupancy k =
  occupancy.(k) < t.capacities.(k) - t.reserves.(k)

(* the one path rule.  It recurses with plain arguments instead of
   taking a predicate closure: partially applying a per-link test would
   allocate a closure on every call, and this runs once per simulated
   call *)
let rec fits caps res occ b ids i =
  i >= Array.length ids
  || begin
       let k = Array.unsafe_get ids i in
       occ.(k) + b <= caps.(k) - res.(k) && fits caps res occ b ids (i + 1)
     end

let path_admits t ~occupancy ~bandwidth ~primary p =
  fits t.capacities
    (if primary then t.zeros else t.reserves)
    occupancy bandwidth p.Path.link_ids 0

let path_admits_primary t ~occupancy p =
  path_admits t ~occupancy ~bandwidth:1 ~primary:true p

let path_admits_alternate t ~occupancy p =
  path_admits t ~occupancy ~bandwidth:1 ~primary:false p

let alternate_refusal t ~occupancy ~bandwidth p =
  let ids = p.Path.link_ids in
  let n = Array.length ids in
  let rec go i =
    if i >= n then None
    else begin
      let k = ids.(i) in
      let threshold = t.capacities.(k) - t.reserves.(k) in
      if occupancy.(k) + bandwidth > threshold then
        Some (k, occupancy.(k), threshold)
      else go (i + 1)
    end
  in
  go 0
