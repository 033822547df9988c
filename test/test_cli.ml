(* The command line as a user meets it: out-of-range flags are
   ordinary usage errors (cmdliner's exit 124, with a message naming
   the bad value), never an uncaught exception from inside a run
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
  usage_error "zero server threads" [ "serve-sweep"; "-t"; "0" ] ~mentions:"thread count";
  usage_error "zero in a sweep" [ "bench"; "--threads"; "1,0" ] ~mentions:"thread count"

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
          Alcotest.test_case "in-range values still run" `Quick test_in_range_runs ] ) ]
