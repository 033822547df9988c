(* The command line as a user meets it: out-of-range flags and unknown
   names are ordinary usage errors (cmdliner's exit 124, with a message
   naming the bad value), never an uncaught exception from inside a run
   (exit 125). *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let kard = Filename.concat (Filename.concat ".." "bin") "kard_cli.exe"

(* Exit code and stderr of one invocation; stdout is discarded. *)
let run args =
  let err = Filename.temp_file "kard_cli" ".err" in
  let code = Sys.command (Filename.quote_command kard args ~stdout:Filename.null ~stderr:err) in
  let ic = open_in_bin err in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove err;
  (code, text)

let contains text sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length text && (String.sub text i n = sub || go (i + 1)) in
  go 0

let usage_error name args ~mentions =
  let code, err = run args in
  check_int (name ^ ": exit code") 124 code;
  check (name ^ ": message names the problem") true (contains err mentions)

let test_threads () =
  usage_error "zero threads" [ "run"; "memcached"; "-t"; "0" ] ~mentions:"thread count";
  usage_error "negative threads" [ "trace"; "memcached"; "--threads=-3" ]
    ~mentions:"thread count";
  usage_error "zero server threads" [ "serve-sweep"; "-t"; "0" ] ~mentions:"thread count"

let test_sampling () =
  usage_error "sampling above 1" [ "run"; "memcached"; "--sampling"; "2" ]
    ~mentions:"sampling rate";
  usage_error "zero sampling" [ "run"; "memcached"; "--sampling"; "0" ]
    ~mentions:"sampling rate";
  usage_error "NaN sampling" [ "scenario"; "ilu-lock-lock"; "--sampling"; "nan" ]
    ~mentions:"sampling rate"

let test_vkeys () =
  usage_error "negative vkeys" [ "run"; "memcached"; "--vkeys=-1" ] ~mentions:"vkeys";
  usage_error "vkeys above the pool limit"
    [ "run"; "memcached"; "--vkeys"; string_of_int (Kard_core.Config.max_vkeys + 1) ]
    ~mentions:"vkeys"

let test_scale () =
  usage_error "zero scale" [ "run"; "memcached"; "--scale"; "0" ] ~mentions:"scale";
  usage_error "scale above 1" [ "trace"; "memcached"; "--scale"; "1.5" ] ~mentions:"scale"

(* Names resolve in converters: a typo is a usage error in every
   command, not a message followed by exit 0. *)
let test_unknown_names () =
  usage_error "run" [ "run"; "bogus" ] ~mentions:"unknown workload";
  usage_error "trace" [ "trace"; "bogus" ] ~mentions:"unknown workload";
  usage_error "scenario" [ "scenario"; "bogus" ] ~mentions:"unknown scenario";
  usage_error "hunt" [ "hunt"; "bogus" ] ~mentions:"unknown scenario";
  usage_error "record" [ "record"; "bogus" ] ~mentions:"unknown workload or scenario";
  usage_error "repro" [ "repro"; "bogus" ] ~mentions:"bogus"

let test_counts () =
  usage_error "zero capacity" [ "trace"; "memcached"; "--capacity"; "0" ] ~mentions:"capacity";
  usage_error "negative tries" [ "hunt"; "ilu-lock-lock"; "--tries=-1" ] ~mentions:"tries"

let test_rates () =
  usage_error "zero rate" [ "serve-sweep"; "--rates"; "0" ] ~mentions:"rate";
  usage_error "negative rate" [ "serve-sweep"; "--rates=-2" ] ~mentions:"rate";
  usage_error "NaN rate" [ "serve-sweep"; "--rates=nan" ] ~mentions:"rate"

let test_serve_scale_slo () =
  let sweep flag = [ "serve-sweep"; "--rates"; "8"; flag ] in
  usage_error "zero serve scale" (sweep "--scale=0") ~mentions:"scale";
  usage_error "negative serve scale" (sweep "--scale=-1") ~mentions:"scale";
  usage_error "NaN serve scale" (sweep "--scale=nan") ~mentions:"scale";
  usage_error "zero slo" (sweep "--slo=0") ~mentions:"slo";
  usage_error "negative slo" (sweep "--slo=-5") ~mentions:"slo"

let fresh_path () =
  let path = Filename.temp_file "kard_cli" ".json" in
  Sys.remove path;
  path

let test_repro_out () =
  let path = fresh_path () in
  let code, _ = run [ "repro"; "keys"; "--scale"; "0.01"; "--out"; path ] in
  check_int "repro keys --out: exit code" 0 code;
  let ic = open_in_bin path in
  let doc = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  let first_field =
    match String.index_opt doc ',' with Some i -> String.sub doc 0 i | None -> doc
  in
  Alcotest.(check string) "first field names the benchmark" "{\n  \"benchmark\": \"keys\""
    first_field;
  let path = fresh_path () in
  usage_error "repro table1 --out" [ "repro"; "table1"; "--out"; path ] ~mentions:"--out";
  check "no file for a table" false (Sys.file_exists path)

let test_repro_nolock () = check_int "repro nolock" 0 (fst (run [ "repro"; "nolock" ]))

let test_in_range_runs () =
  let code, _ =
    run [ "run"; "aget"; "-t"; "2"; "--scale"; "0.002"; "--sampling"; "0.5"; "--vkeys"; "32" ]
  in
  check_int "in-range flags run" 0 code

let () =
  Alcotest.run "cli"
    [ ( "range checks",
        [ Alcotest.test_case "--threads" `Quick test_threads;
          Alcotest.test_case "--sampling" `Quick test_sampling;
          Alcotest.test_case "--vkeys" `Quick test_vkeys;
          Alcotest.test_case "--scale" `Quick test_scale;
          Alcotest.test_case "--capacity and --tries" `Quick test_counts;
          Alcotest.test_case "serve-sweep --rates" `Quick test_rates;
          Alcotest.test_case "serve-sweep --scale and --slo" `Quick test_serve_scale_slo;
          Alcotest.test_case "in-range values still run" `Quick test_in_range_runs ] );
      ("names", [ Alcotest.test_case "unknown names" `Quick test_unknown_names ]);
      ( "repro",
        [ Alcotest.test_case "--out writes the JSON document" `Quick test_repro_out;
          Alcotest.test_case "nolock" `Quick test_repro_nolock ] ) ]
