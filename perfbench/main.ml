(* Command line of the simulator benchmark.  [run.py] builds and calls
   it; see [Kbench] for the workloads and metrics.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 --pins FILE
     main.exe --write-pins --workload NAME --seeds A-B   # regenerate pins

   The last line of standard output is the result object. *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let pins = ref "" and write_pins = ref false and seeds = ref "" in
  let host = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " Kbench.workload_names);
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer run when 1");
      ("--pins", Arg.Set_string pins, "FILE pinned simulated invariants (required)");
      ("--host", Arg.Set_string host, "TEXT build profile and commit to record");
      ("--write-pins", Arg.Set write_pins, " print pin lines for --seeds and exit");
      ("--seeds", Arg.Set_string seeds, "A-B seed range of --write-pins") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1 --pins FILE";
  if not (List.mem !workload Kbench.workload_names) then begin
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  end;
  (match Kbench.env_overrides () with
   | [] -> ()
   | vs ->
     prerr_endline
       ("refusing to run: the benchmark pins every knob itself; unset "
       ^ String.concat ", " vs);
     exit 2);
  if !write_pins then begin
    let lo, hi = Scanf.sscanf !seeds "%d-%d" (fun a b -> (a, b)) in
    for s = lo to hi do
      print_endline (Kbench.pin_line !workload s (Kbench.pin_for !workload s))
    done;
    exit 0
  end;
  if !pins = "" then begin
    prerr_endline "--pins FILE is required: every run is checked against pinned invariants";
    exit 2
  end;
  let r =
    Kbench.run ~pins:(Kbench.load_pins !pins) ~workload:!workload ~seed:!seed ~seconds:!seconds
      ~trace:(!trace = 1) ()
  in
  Printf.printf "host: cores %d  ocaml %s  %s\n" (Domain.recommended_domain_count ())
    Sys.ocaml_version !host;
  List.iter print_endline r.Kbench.notes;
  Printf.printf "  %-36s %16s %-8s %16s\n" "metric" "calibrated" "unit" "raw";
  List.iter2
    (fun (name, value, unit) (_, raw, _) ->
      Printf.printf "  %-36s %16.6g %-8s %16.6g\n" name value unit raw)
    r.Kbench.metrics r.Kbench.raw_metrics;
  print_endline (Kbench.to_json r)
