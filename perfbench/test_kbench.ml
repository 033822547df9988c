(* The benchmark's own tests, on tiny inputs: every named metric comes
   out with its unit, end-to-end values are never 0, a correct pin
   passes, and a deliberately wrong pin shows up as failed operations. *)

let fail fmt = Printf.ksprintf failwith fmt

let run ~pins ~trace workload =
  Kbench.run ~pins ~tiny:true ~quota:0.01 ~workload ~seed:3 ~seconds:0.05 ~trace ()

let pins_with workload kvs =
  Kbench.pins_of_lines [ Kbench.pin_line workload 3 kvs ]

let check_metrics ~trace workload (r : Kbench.result) =
  let table = if trace then Kbench.per_layer else Kbench.end_to_end in
  let got = List.map (fun (name, _, unit) -> (name, unit)) r.Kbench.metrics in
  if got <> table then fail "%s: metric names/units differ from the table" workload;
  List.iter
    (fun (name, value, _) ->
      if not (Float.is_finite value) then fail "%s: %s is not finite" workload name;
      if (not trace) && value <= 0. then fail "%s: %s is %g" workload name value)
    r.Kbench.metrics;
  let json = Kbench.to_json r in
  if not (String.starts_with ~prefix:"{\"correct\": true, \"attempted\": " json) then
    fail "%s: result line %s" workload json

let () =
  List.iter
    (fun workload ->
      let pin = Kbench.pin_for ~tiny:true workload 3 in
      let pins = pins_with workload pin in
      List.iter
        (fun trace ->
          let r = run ~pins ~trace workload in
          if not r.Kbench.correct || r.Kbench.failed <> 0 || r.Kbench.attempted < 1 then
            fail "%s trace=%b: correct=%b failed=%d/%d\n%s" workload trace r.Kbench.correct
              r.Kbench.failed r.Kbench.attempted (String.concat "\n" r.Kbench.notes);
          check_metrics ~trace workload r)
        [ false; true ];
      (* One wrong pinned value must fail every operation it guards. *)
      let wrong =
        List.map (fun (k, v) -> if k = "cycles" then (k, v ^ "1") else (k, v)) pin
      in
      let r = run ~pins:(pins_with workload wrong) ~trace:false workload in
      if r.Kbench.correct || r.Kbench.failed = 0 || r.Kbench.failed <> r.Kbench.attempted then
        fail "%s: wrong pin gave correct=%b failed=%d/%d" workload r.Kbench.correct
          r.Kbench.failed r.Kbench.attempted;
      Printf.printf "%s: ok\n" workload)
    Kbench.workload_names
