(* Multi-rate QoS calls (the paper's declared future work): a video
   class reserving 6 bandwidth units rides alongside 1-unit calls.
   State protection generalizes to bandwidth units and still tames
   uncontrolled alternate routing at overload.

   Run with: dune exec examples/multirate_qos.exe [-- quick] *)

open Arnet_erlang
open Arnet_experiments

let () =
  let config =
    if Array.length Sys.argv > 1 && Sys.argv.(1) = "quick" then Config.quick
    else Config.paper
  in
  let ppf = Format.std_formatter in

  (* the analytic substrate first: exact per-class blocking of a shared
     link via the Kaufman-Roberts recursion *)
  let classes =
    [ { Kaufman_roberts.offered = 60.; bandwidth = 1 };
      { Kaufman_roberts.offered = 5.; bandwidth = 6 } ]
  in
  (match Kaufman_roberts.class_blocking ~capacity:100 classes with
  | [ b1; b6 ] ->
    Format.fprintf ppf
      "one link, C=100, 60 E narrowband + 5 E wideband:@.";
    Format.fprintf ppf
      "  narrowband blocking %.4f, wideband blocking %.4f (KR recursion)@."
      b1 b6
  | _ -> assert false);

  Format.fprintf ppf
    "@.network experiment (quadrangle, both classes, %s):@."
    (Config.describe config);
  let kr = Multirate_exp.kaufman_roberts_check () in
  let points = Multirate_exp.run ~config () in
  Multirate_exp.print ppf (kr, points);
  let ok =
    List.for_all
      (fun p ->
        List.assoc "mr-controlled" p.Multirate_exp.schemes
        <= List.assoc "mr-single-path" p.Multirate_exp.schemes +. 0.01)
      points
  in
  Format.fprintf ppf
    "controlled never worse than single-path on bandwidth blocking: %b@." ok
