(* The compiled interpreter against its oracle.

   [Machine.create ~interp:`Compiled] (the default) dispatches on int
   tags pulled straight out of flat program segments;
   [~interp:`Thunks] reconstructs option-boxed [Op.t]s through
   [Program.to_thunk] — the pre-compilation consumption path.  The two
   must be observationally identical: same schedule, same step count,
   same simulated cycles, same races, bit-for-bit identical JSON
   reports.  This file pins that equivalence across every Table 3
   workload, every controlled race scenario, and a dynamic
   data-dependent program, then pins the point of the whole exercise:
   the per-step allocation contract (DESIGN.md). *)

module Machine = Kard_sched.Machine
module Program = Kard_sched.Program
module Dense = Kard_sched.Dense
module Op = Kard_sched.Op
module Runner = Kard_harness.Runner
module Json_report = Kard_harness.Json_report
module Registry = Kard_workloads.Registry
module Race_suite = Kard_workloads.Race_suite

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* {1 Oracle: workloads} *)

(* The JSON rendering covers everything observable about a run —
   machine report, detector stats, race records, uniqueness counts —
   so string equality is the strongest portable comparison.  The
   structural check on [report] is kept as a second witness because a
   JSON diff is painful to read when it does fire. *)
let assert_identical name (compiled : Runner.result) (oracle : Runner.result) =
  check (name ^ ": report") true (compiled.Runner.report = oracle.Runner.report);
  check_int (name ^ ": steps") compiled.Runner.report.Machine.steps
    oracle.Runner.report.Machine.steps;
  check_string (name ^ ": json") (Json_report.of_result compiled) (Json_report.of_result oracle)

let detectors = [ Runner.Baseline; Runner.Kard (Kard_harness.Defaults.kard_config ()) ]

let test_workloads_oracle () =
  List.iter
    (fun spec ->
      List.iter
        (fun detector ->
          let run interp = Runner.run ~interp ~scale:0.002 ~seed:42 ~detector spec in
          assert_identical
            (spec.Kard_workloads.Spec.name ^ "/" ^ Runner.detector_name detector)
            (run `Compiled) (run `Thunks))
        detectors)
    Registry.extended

let test_workloads_oracle_reseeded () =
  (* A second seed exercises different schedules through the same
     segments. *)
  let spec = Registry.find "memcached" in
  List.iter
    (fun seed ->
      let run interp =
        Runner.run ~interp ~scale:0.005 ~seed ~detector:(Runner.Kard (Kard_harness.Defaults.kard_config ()))
          spec
      in
      assert_identical (Printf.sprintf "memcached seed=%d" seed) (run `Compiled) (run `Thunks))
    [ 1; 7; 1234 ]

let test_race_suite_oracle () =
  List.iter
    (fun scenario ->
      let run interp = Runner.run_scenario ~interp ~seed:42 ~detector:(Runner.Kard scenario.Race_suite.config) scenario in
      let compiled = run `Compiled and oracle = run `Thunks in
      assert_identical scenario.Race_suite.name compiled oracle;
      check_int (scenario.Race_suite.name ^ ": races") (List.length compiled.Runner.kard_races)
        (List.length oracle.Runner.kard_races);
      check (scenario.Race_suite.name ^ ": race records") true
        (compiled.Runner.kard_races = oracle.Runner.kard_races))
    Race_suite.all

(* The lock convoy, where nearly every step charges a holder with
   waiters queued behind it. *)
let test_convoy_oracle () =
  let run interp =
    Runner.run ~interp ~threads:16 ~scale:0.02 ~seed:7
      ~detector:(Runner.Kard Kard_core.Config.default) Kard_workloads.Contended.convoy
  in
  let compiled = run `Compiled and oracle = run `Thunks in
  assert_identical "convoy" compiled oracle;
  check "convoy races" true (compiled.Runner.kard_races = oracle.Runner.kard_races)

(* A program whose shape is decided while it runs: an [Alloc]
   continuation captures the object, [delay] builds the access pattern
   from the allocated base, [dynamic] emits segments until a counter
   runs out, and [wait_until] spins on state written by another
   thread.  Exactly the generator features the compiled cursor must
   not reorder around. *)
let dynamic_program ~flag ~rounds =
  let meta = ref None in
  let remaining = ref rounds in
  Program.concat
    [ Program.of_list
        [ Op.Alloc { size = 64; site = 3; on_result = (fun m -> meta := Some m) } ];
      Program.delay (fun () ->
          match !meta with
          | None -> assert false
          | Some m ->
            let base = m.Kard_alloc.Obj_meta.base in
            Program.of_list [ Op.Lock { lock = 0; site = 3 }; Op.Write base; Op.Unlock { lock = 0 } ]);
      Program.wait_until (fun () -> !flag);
      Program.dynamic (fun () ->
          if !remaining = 0 then None
          else begin
            decr remaining;
            match !meta with
            | None -> assert false
            | Some m ->
              Some
                (Program.of_list
                   [ Op.Lock { lock = 1; site = 4 };
                     Op.Read m.Kard_alloc.Obj_meta.base;
                     Op.Compute 25;
                     Op.Unlock { lock = 1 } ])
          end) ]

let setter_program ~flag =
  Program.concat
    [ Program.of_list [ Op.Compute 400; Op.Io 100 ];
      Program.with_setup (fun () -> flag := true) (Program.of_list [ Op.Yield ]) ]

let run_dynamic interp =
  let cell = ref None in
  let machine =
    Machine.create ~seed:11 ~interp
      ~allocator:(Machine.Unique_page { granule = 32; recycle_virtual_pages = false })
      ~make_detector:(Kard_core.Detector.make ~config:Kard_core.Config.default ~cell)
      ()
  in
  let flag = ref false in
  ignore (Machine.spawn machine (dynamic_program ~flag ~rounds:5) : int);
  ignore (Machine.spawn machine (setter_program ~flag) : int);
  let report = Machine.run machine in
  (report, match !cell with Some d -> Kard_core.Detector.races d | None -> [])

let test_dynamic_program_oracle () =
  let report_c, races_c = run_dynamic `Compiled in
  let report_t, races_t = run_dynamic `Thunks in
  check "dynamic: report" true (report_c = report_t);
  check "dynamic: races" true (races_c = races_t);
  check "dynamic: did work" true (report_c.Machine.steps > 10)

(* {1 The allocation contract} *)

(* The hot loop's reason to exist: minor-heap words per executed step,
   measured around a full kard run.  The pre-compilation machine sat
   around 65 w/step on this workload; the compiled loop runs under 15
   even in dev builds.  The bound leaves headroom for GC/runtime
   wobble while still catching any per-step box sneaking back in. *)
let test_allocation_budget () =
  let spec = Registry.find "memcached" in
  let detector = Runner.Kard (Kard_harness.Defaults.kard_config ()) in
  (* Warm once so module initialization doesn't bill the budget. *)
  ignore (Runner.run ~threads:8 ~scale:0.01 ~seed:42 ~detector spec : Runner.result);
  let before = Gc.quick_stat () in
  let result = Runner.run ~threads:8 ~scale:0.01 ~seed:42 ~detector spec in
  let after = Gc.quick_stat () in
  let minor = after.Gc.minor_words -. before.Gc.minor_words in
  let steps = result.Runner.report.Machine.steps in
  let per_step = minor /. float_of_int steps in
  check "steps sane" true (steps > 1_000);
  if per_step > 30.0 then
    Alcotest.failf "allocation contract broken: %.2f minor words/step (budget 30)" per_step

(* {1 Dense} *)

let test_grow_pow2 () =
  check "grows past needed" true (Dense.grow_pow2 4 10 > 10);
  check "at least doubles" true (Dense.grow_pow2 256 257 >= 512);
  check_int "doubling from 4 to >10" 16 (Dense.grow_pow2 4 10);
  let c = Dense.grow_pow2 16 1000 in
  check "big jump covers" true (c > 1000)

let test_bitset () =
  let b = Dense.Bitset.create ~capacity:8 () in
  check "fresh empty" false (Dense.Bitset.mem b 3);
  check_int "fresh count" 0 (Dense.Bitset.count b);
  Dense.Bitset.add b 3;
  Dense.Bitset.add b 3;
  (* idempotent *)
  Dense.Bitset.add b 200;
  (* forces growth *)
  check "mem 3" true (Dense.Bitset.mem b 3);
  check "mem 200" true (Dense.Bitset.mem b 200);
  check "mem 4" false (Dense.Bitset.mem b 4);
  check "mem past capacity" false (Dense.Bitset.mem b 100_000);
  check_int "count" 2 (Dense.Bitset.count b);
  check "negative rejected" true
    (try
       Dense.Bitset.add b (-1);
       false
     with Invalid_argument _ -> true)

let test_int_ring () =
  let r = Dense.Int_ring.create () in
  check_int "empty length" 0 (Dense.Int_ring.length r);
  check "pop empty rejected" true
    (try
       ignore (Dense.Int_ring.pop r : int);
       false
     with Invalid_argument _ -> true);
  (* Push enough to wrap whatever the initial capacity is, popping
     interleaved so head chases tail. *)
  for i = 0 to 99 do
    Dense.Int_ring.push r i
  done;
  for i = 0 to 49 do
    check_int "fifo pop" i (Dense.Int_ring.pop r)
  done;
  for i = 100 to 199 do
    Dense.Int_ring.push r i
  done;
  check_int "length" 150 (Dense.Int_ring.length r);
  check_int "nth 0 is front" 50 (Dense.Int_ring.nth r 0);
  check_int "nth 149" 199 (Dense.Int_ring.nth r 149);
  check "nth out of range" true
    (try
       ignore (Dense.Int_ring.nth r 150 : int);
       false
     with Invalid_argument _ -> true);
  let seen = ref [] in
  Dense.Int_ring.iter (fun x -> seen := x :: !seen) r;
  check_int "iter count" 150 (List.length !seen);
  check_int "iter order front first" 50 (List.nth (List.rev !seen) 0);
  for i = 50 to 199 do
    check_int "drain" i (Dense.Int_ring.pop r)
  done;
  check_int "drained" 0 (Dense.Int_ring.length r)

(* {1 Program cursors} *)

let ops_roundtrip =
  [ Op.Read 0x100;
    Op.Write 0x108;
    Op.Lock { lock = 2; site = 9 };
    Op.Unlock { lock = 2 };
    Op.Compute 75;
    Op.Io 30;
    Op.Yield ]

let test_cursor_tags () =
  let c = Program.cursor (Program.of_list ops_roundtrip) in
  check_int "read tag" Program.tag_read (Program.fetch c);
  check_int "read addr" 0x100 (Program.arg_a c);
  check_int "write tag" Program.tag_write (Program.fetch c);
  check_int "write addr" 0x108 (Program.arg_a c);
  check_int "lock tag" Program.tag_lock (Program.fetch c);
  check_int "lock id" 2 (Program.arg_a c);
  check_int "lock site" 9 (Program.arg_b c);
  check_int "unlock tag" Program.tag_unlock (Program.fetch c);
  check_int "unlock id" 2 (Program.arg_a c);
  check_int "compute tag" Program.tag_compute (Program.fetch c);
  check_int "compute cycles" 75 (Program.arg_a c);
  check_int "io tag" Program.tag_io (Program.fetch c);
  check_int "io cycles" 30 (Program.arg_a c);
  check_int "yield tag" Program.tag_yield (Program.fetch c);
  check_int "halt" Program.tag_halt (Program.fetch c);
  check_int "halt is sticky" Program.tag_halt (Program.fetch c)

let test_cursor_boxed () =
  let got = ref None in
  let p =
    Program.of_list [ Op.Alloc { size = 32; site = 1; on_result = (fun m -> got := Some m) } ]
  in
  let c = Program.cursor p in
  check_int "boxed tag" Program.tag_boxed (Program.fetch c);
  (match Program.boxed_op c with
  | Op.Alloc { size = 32; site = 1; _ } -> ()
  | _ -> Alcotest.fail "wrong boxed payload");
  check_int "halt after boxed" Program.tag_halt (Program.fetch c)

let test_next_op_oracle () =
  (* [next_op] must reconstruct exactly the ops [of_list] consumed. *)
  let c = Program.cursor (Program.of_list ops_roundtrip) in
  let rec drain acc =
    match Program.next_op c with
    | Some op -> drain (op :: acc)
    | None -> List.rev acc
  in
  check "next_op roundtrip" true (drain [] = ops_roundtrip);
  check "to_list roundtrip" true (Program.to_list (Program.of_list ops_roundtrip) = ops_roundtrip)

let test_builder_matches_of_list () =
  let b = Program.Builder.create ~hint:4 () in
  Program.Builder.read b 0x10;
  Program.Builder.write b 0x18;
  Program.Builder.lock b ~lock:1 ~site:5;
  Program.Builder.unlock b ~lock:1;
  Program.Builder.compute b 12;
  Program.Builder.io b 3;
  Program.Builder.yield b;
  let built = Program.to_list (Program.Builder.seal b) in
  let expected =
    [ Op.Read 0x10;
      Op.Write 0x18;
      Op.Lock { lock = 1; site = 5 };
      Op.Unlock { lock = 1 };
      Op.Compute 12;
      Op.Io 3;
      Op.Yield ]
  in
  check "builder = of_list" true (built = expected)

let test_builder_arena_reuse () =
  let b = Program.Builder.create ~hint:2 () in
  Program.Builder.read b 0x10;
  Program.Builder.read b 0x20;
  let p1 = Program.Builder.current b in
  check "cycle 1 contents" true (Program.to_list p1 = [ Op.Read 0x10; Op.Read 0x20 ]);
  Program.Builder.reset b;
  Program.Builder.write b 0x30;
  let p2 = Program.Builder.current b in
  (* [current] aliases the builder's buffers: the same program value
     comes back every cycle (that is what makes the generator loop
     allocation-free), serving whatever was emitted since the last
     reset. *)
  check "same program value across cycles" true (p1 == p2);
  check "cycle 2 contents" true (Program.to_list p2 = [ Op.Write 0x30 ]);
  Program.Builder.reset b;
  let p3 = Program.Builder.current b in
  check "empty cycle" true (Program.to_list p3 = [])

let () =
  Alcotest.run "compiled"
    [ ( "oracle",
        [ Alcotest.test_case "workloads compiled = thunks" `Slow test_workloads_oracle;
          Alcotest.test_case "memcached across seeds" `Slow test_workloads_oracle_reseeded;
          Alcotest.test_case "race suite compiled = thunks" `Quick test_race_suite_oracle;
          Alcotest.test_case "convoy compiled = thunks" `Quick test_convoy_oracle;
          Alcotest.test_case "dynamic program" `Quick test_dynamic_program_oracle ] );
      ( "allocation",
        [ Alcotest.test_case "per-step budget" `Slow test_allocation_budget ] );
      ( "dense",
        [ Alcotest.test_case "grow_pow2" `Quick test_grow_pow2;
          Alcotest.test_case "bitset" `Quick test_bitset;
          Alcotest.test_case "int_ring" `Quick test_int_ring ] );
      ( "program",
        [ Alcotest.test_case "cursor tags" `Quick test_cursor_tags;
          Alcotest.test_case "boxed ops" `Quick test_cursor_boxed;
          Alcotest.test_case "next_op oracle" `Quick test_next_op_oracle;
          Alcotest.test_case "builder seal" `Quick test_builder_matches_of_list;
          Alcotest.test_case "builder arena reuse" `Quick test_builder_arena_reuse ] ) ]
