(* Tests for the simulated machine: programs, locks, scheduling,
   block operations and cycle accounting. *)

module Op = Kard_sched.Op
module Program = Kard_sched.Program
module Lock_table = Kard_sched.Lock_table
module Machine = Kard_sched.Machine
module Hooks = Kard_sched.Hooks
module Sim_clock = Kard_sched.Sim_clock

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* {1 Program combinators} *)

let ops_of = Program.to_list

let test_program_of_list () =
  let p = Program.of_list [ Op.Compute 1; Op.Compute 2 ] in
  check_int "two ops" 2 (List.length (ops_of p));
  (* Compiled segments are pure data: a fresh cursor replays them
     (generator state, by contrast, stays one-shot — see repeat). *)
  check_int "segments replay" 2 (List.length (ops_of p))

let test_program_append_concat () =
  let p =
    Program.concat
      [ Program.of_list [ Op.Compute 1 ];
        Program.empty;
        Program.append (Program.of_list [ Op.Compute 2 ]) (Program.of_list [ Op.Compute 3 ]) ]
  in
  check_int "three ops" 3 (List.length (ops_of p))

let test_program_repeat_lazy () =
  let built = ref 0 in
  let p =
    Program.repeat 3 (fun i ->
        incr built;
        Program.of_list [ Op.Compute (i + 1) ])
  in
  check_int "nothing built yet" 0 !built;
  let ops = ops_of p in
  check_int "three ops" 3 (List.length ops);
  check_int "all bodies built" 3 !built;
  check "ordered" true
    (match ops with
    | [ Op.Compute 1; Op.Compute 2; Op.Compute 3 ] -> true
    | _ -> false)

let test_program_unfold () =
  let p = Program.unfold (fun n -> if n = 0 then None else Some (Op.Compute n, n - 1)) 3 in
  check_int "three ops" 3 (List.length (ops_of p))

let test_program_delay () =
  let cell = ref 0 in
  let p =
    Program.append
      (Program.of_list [ Op.Alloc { size = 8; site = 0; on_result = (fun _ -> cell := 7) } ])
      (Program.delay (fun () -> Program.of_list [ Op.Compute !cell ]))
  in
  (* Without a machine, simulate the pull order manually. *)
  let pull = Program.to_thunk p in
  (match pull () with
  | Some (Op.Alloc { on_result; _ }) ->
    on_result
      { Kard_alloc.Obj_meta.id = 0; base = 0x10000; size = 8; reserved = 32;
        kind = Kard_alloc.Obj_meta.Heap 0; pages = 1 }
  | _ -> Alcotest.fail "expected alloc");
  (match pull () with
  | Some (Op.Compute 7) -> ()
  | _ -> Alcotest.fail "delay must see the alloc's effect")

let test_program_with_setup () =
  let ran = ref false in
  let p = Program.with_setup (fun () -> ran := true) (Program.of_list [ Op.Yield ]) in
  let pull = Program.to_thunk p in
  check "setup lazy" false !ran;
  ignore (pull ());
  check "setup ran" true !ran

(* {1 Runnable_set} *)

module Runnable_set = Kard_sched.Runnable_set

let test_runnable_set_basic () =
  let s = Runnable_set.create ~capacity:4 () in
  check_int "empty" 0 (Runnable_set.cardinal s);
  check "min of empty" true (Runnable_set.min_elt s = None);
  List.iter (Runnable_set.add s) [ 3; 0; 2 ];
  check_int "three members" 3 (Runnable_set.cardinal s);
  Runnable_set.add s 2;
  check_int "add is idempotent" 3 (Runnable_set.cardinal s);
  check "mem" true (Runnable_set.mem s 2);
  check "not mem" false (Runnable_set.mem s 1);
  check "ascending" true (Runnable_set.to_list s = [ 0; 2; 3 ]);
  Runnable_set.remove s 2;
  Runnable_set.remove s 2;
  check "removed" true (Runnable_set.to_list s = [ 0; 3 ])

let test_runnable_set_order_statistics () =
  let s = Runnable_set.create ~capacity:8 () in
  List.iter (Runnable_set.add s) [ 5; 1; 7; 3 ];
  check_int "0th largest" 7 (Runnable_set.kth_largest s 0);
  check_int "1st largest" 5 (Runnable_set.kth_largest s 1);
  check_int "3rd largest" 1 (Runnable_set.kth_largest s 3);
  check_int "0th smallest" 1 (Runnable_set.kth_smallest s 0);
  check "first above 3" true (Runnable_set.first_above s 3 = Some 5);
  check "first above -1 is min" true (Runnable_set.first_above s (-1) = Some 1);
  check "first above max" true (Runnable_set.first_above s 7 = None);
  check "min/max" true (Runnable_set.min_elt s = Some 1 && Runnable_set.max_elt s = Some 7);
  check "kth out of range" true
    (try
       ignore (Runnable_set.kth_largest s 4);
       false
     with Invalid_argument _ -> true)

let test_runnable_set_grows () =
  let s = Runnable_set.create ~capacity:2 () in
  Runnable_set.add s 1;
  Runnable_set.add s 77;
  Runnable_set.add s 40;
  check "grown members" true (Runnable_set.to_list s = [ 1; 40; 77 ]);
  check_int "largest after growth" 77 (Runnable_set.kth_largest s 0);
  check "membership preserved" true (Runnable_set.mem s 1)

let test_runnable_set_exhaustive_vs_list () =
  (* Cross-check every query against a sorted-list oracle over a
     random add/remove trace. *)
  let rng = Random.State.make [| 7 |] in
  let s = Runnable_set.create ~capacity:4 () in
  let reference = ref [] in
  for _ = 1 to 2000 do
    let id = Random.State.int rng 50 in
    if Random.State.bool rng then begin
      Runnable_set.add s id;
      if not (List.mem id !reference) then
        reference := List.sort Int.compare (id :: !reference)
    end
    else begin
      Runnable_set.remove s id;
      reference := List.filter (fun x -> x <> id) !reference
    end;
    let n = List.length !reference in
    if Runnable_set.cardinal s <> n then Alcotest.fail "cardinal diverged";
    if Runnable_set.to_list s <> !reference then Alcotest.fail "contents diverged";
    if n > 0 then begin
      let k = Random.State.int rng n in
      if Runnable_set.kth_largest s k <> List.nth (List.rev !reference) k then
        Alcotest.fail "kth_largest diverged"
    end
  done

(* {1 Lock_table} *)

let test_lock_acquire_release () =
  let lt = Lock_table.create () in
  check "acquire free" true (Lock_table.acquire lt ~lock:1 ~tid:0 = Lock_table.Acquired);
  check "owner" true (Lock_table.owner lt ~lock:1 = Some 0);
  check "second must wait" true (Lock_table.acquire lt ~lock:1 ~tid:1 = Lock_table.Must_wait);
  (match Lock_table.release lt ~lock:1 ~tid:0 with
  | Some 1 -> ()
  | _ -> Alcotest.fail "ownership should transfer to waiter");
  check "waiter owns" true (Lock_table.owner lt ~lock:1 = Some 1);
  check "release to none" true (Lock_table.release lt ~lock:1 ~tid:1 = None)

let test_lock_fifo () =
  let lt = Lock_table.create () in
  ignore (Lock_table.acquire lt ~lock:1 ~tid:0);
  ignore (Lock_table.acquire lt ~lock:1 ~tid:1);
  ignore (Lock_table.acquire lt ~lock:1 ~tid:2);
  check "first waiter first" true (Lock_table.release lt ~lock:1 ~tid:0 = Some 1);
  check "then second" true (Lock_table.release lt ~lock:1 ~tid:1 = Some 2)

let test_lock_errors () =
  let lt = Lock_table.create () in
  ignore (Lock_table.acquire lt ~lock:1 ~tid:0);
  check "relock rejected" true
    (try
       ignore (Lock_table.acquire lt ~lock:1 ~tid:0);
       false
     with Invalid_argument _ -> true);
  check "foreign release rejected" true
    (try
       ignore (Lock_table.release lt ~lock:1 ~tid:5);
       false
     with Invalid_argument _ -> true);
  check "free release rejected" true
    (try
       ignore (Lock_table.release lt ~lock:99 ~tid:0);
       false
     with Invalid_argument _ -> true)

let test_lock_stats () =
  let lt = Lock_table.create () in
  ignore (Lock_table.acquire lt ~lock:1 ~tid:0);
  ignore (Lock_table.acquire lt ~lock:1 ~tid:1);
  ignore (Lock_table.acquire lt ~lock:2 ~tid:2);
  check_int "total" 3 (Lock_table.total_acquires lt);
  check_int "contended" 1 (Lock_table.contended_acquires lt);
  check "held_by" true (Lock_table.held_by lt ~tid:2 = [ 2 ])

let test_lock_held_index () =
  let lt = Lock_table.create () in
  ignore (Lock_table.acquire lt ~lock:1 ~tid:0);
  ignore (Lock_table.acquire lt ~lock:2 ~tid:0);
  ignore (Lock_table.acquire lt ~lock:3 ~tid:1);
  check "nested holds, recent first" true (Lock_table.held_by lt ~tid:0 = [ 2; 1 ]);
  check "other thread isolated" true (Lock_table.held_by lt ~tid:1 = [ 3 ]);
  let seen = ref [] in
  Lock_table.iter_held lt ~tid:0 (fun l -> seen := l :: !seen);
  check "iter_held matches held_by" true (List.rev !seen = Lock_table.held_by lt ~tid:0);
  ignore (Lock_table.release lt ~lock:2 ~tid:0);
  check "release shrinks the index" true (Lock_table.held_by lt ~tid:0 = [ 1 ]);
  (* Contended handoff must move the lock between held sets. *)
  ignore (Lock_table.acquire lt ~lock:1 ~tid:1);
  check "waiter not yet an owner" true (Lock_table.held_by lt ~tid:1 = [ 3 ]);
  (match Lock_table.release lt ~lock:1 ~tid:0 with
  | Some 1 -> ()
  | _ -> Alcotest.fail "ownership should transfer");
  check "releaser's index empty" true (Lock_table.held_by lt ~tid:0 = []);
  check "transferred lock in waiter's index" true (Lock_table.held_by lt ~tid:1 = [ 1; 3 ])

let test_lock_waiter_iteration () =
  let lt = Lock_table.create () in
  ignore (Lock_table.acquire lt ~lock:9 ~tid:0);
  ignore (Lock_table.acquire lt ~lock:9 ~tid:2);
  ignore (Lock_table.acquire lt ~lock:9 ~tid:1);
  check_int "two waiters" 2 (Lock_table.waiter_count lt ~lock:9);
  let seen = ref [] in
  Lock_table.iter_waiters lt ~lock:9 (fun tid -> seen := tid :: !seen);
  check "FIFO order" true (List.rev !seen = [ 2; 1 ]);
  check_int "unknown lock has no waiters" 0 (Lock_table.waiter_count lt ~lock:404)

(* {1 Machine} *)

let null_machine ?(seed = 1) () =
  Machine.create ~seed ~allocator:Machine.Native
    ~make_detector:(fun _ -> Hooks.null ~name:"test")
    ()

let test_machine_compute_io () =
  let m = null_machine () in
  let (_ : int) = Machine.spawn m (Program.of_list [ Op.Compute 100; Op.Io 50 ]) in
  let r = Machine.run m in
  check_int "cycles" 150 r.Machine.cycles;
  check_int "io cycles" 50 r.Machine.io_cycles;
  check_int "steps" 3 r.Machine.steps (* two ops + final None *)

let test_machine_alloc_and_access () =
  let m = null_machine () in
  let base = ref 0 in
  let prog =
    Program.concat
      [ Program.of_list
          [ Op.Alloc { size = 64; site = 1; on_result = (fun meta -> base := meta.Kard_alloc.Obj_meta.base) } ];
        Program.delay (fun () -> Program.of_list [ Op.Write !base; Op.Read !base ]) ]
  in
  let (_ : int) = Machine.spawn m prog in
  let r = Machine.run m in
  check_int "one read" 1 r.Machine.reads;
  check_int "one write" 1 r.Machine.writes;
  check_int "no faults" 0 r.Machine.faults

let test_machine_lock_cs_stats () =
  let m = null_machine () in
  let cs = Kard_workloads.Builder.critical_section ~lock:1 ~site:9 [ Op.Compute 10 ] in
  let (_ : int) = Machine.spawn m (Program.of_list (cs @ cs)) in
  let (_ : int) = Machine.spawn m (Program.of_list cs) in
  let r = Machine.run m in
  check_int "three entries" 3 r.Machine.cs_entries;
  check_int "one site" 1 r.Machine.unique_sections

let test_machine_deadlock_detected () =
  let m = null_machine () in
  (* Two threads each grab one lock then want the other's: with the
     right schedule this deadlocks; with others it completes.  Use a
     schedule-independent deadlock: each thread takes the other's lock
     first via crossing order and a barrier of yields is impossible to
     express, so force it: t0 holds lock 1 forever (never unlocks)
     while t1 wants it. *)
  let (_ : int) =
    Machine.spawn m (Program.of_list [ Op.Lock { lock = 1; site = 1 }; Op.Yield ])
  in
  check "finishing while holding a lock is an error" true
    (try
       ignore (Machine.run m);
       false
     with Machine.Stuck _ -> true)

let test_machine_blocked_thread_waits () =
  let m = null_machine () in
  let order = ref [] in
  let note tag = Op.Alloc { size = 8; site = 0; on_result = (fun _ -> order := tag :: !order) } in
  let (_ : int) =
    Machine.spawn m
      (Program.of_list
         [ Op.Lock { lock = 1; site = 1 }; note "t0-in"; Op.Compute 10; Op.Unlock { lock = 1 } ])
  in
  let (_ : int) =
    Machine.spawn m
      (Program.of_list
         [ Op.Lock { lock = 1; site = 2 }; note "t1-in"; Op.Unlock { lock = 1 } ])
  in
  let r = Machine.run m in
  check_int "both entered" 2 (List.length !order);
  check "mutual exclusion preserved" true (r.Machine.cs_entries = 2)

let test_machine_determinism () =
  let run seed =
    let m = null_machine ~seed () in
    let (_ : int) = Machine.spawn m (Program.of_list [ Op.Compute 5; Op.Compute 7 ]) in
    let (_ : int) = Machine.spawn m (Program.of_list [ Op.Compute 11 ]) in
    (Machine.run m).Machine.cycles
  in
  check_int "same seed same cycles" (run 3) (run 3)

let test_machine_block_op () =
  let m = null_machine () in
  let base = ref 0 in
  let prog =
    Program.concat
      [ Program.of_list
          [ Op.Alloc
              { size = 2 * 4096; site = 1; on_result = (fun meta -> base := meta.Kard_alloc.Obj_meta.base) } ];
        Program.delay (fun () ->
            Program.of_list [ Op.Read_block { base = !base; count = 1000; stride = 8; span = 8192 } ]) ]
  in
  let (_ : int) = Machine.spawn m prog in
  let r = Machine.run m in
  check_int "all accesses counted" 1000 r.Machine.reads;
  (* ~count/throughput cycles for the sweep, plus the allocation and
     the sampled page checks. *)
  check "throughput cycles" true (r.Machine.cycles >= 499 && r.Machine.cycles < 20_000)

let test_machine_stall_accounting () =
  (* Detection work inside a held section must also cost the waiters:
     compare a contended run against an uncontended one. *)
  let run ~contended =
    let m = null_machine () in
    let cs =
      [ Op.Lock { lock = 1; site = 1 }; Op.Compute 10_000; Op.Unlock { lock = 1 } ]
    in
    let other_lock = if contended then 1 else 2 in
    let cs2 =
      [ Op.Lock { lock = other_lock; site = 2 }; Op.Compute 10_000; Op.Unlock { lock = other_lock } ]
    in
    let (_ : int) = Machine.spawn m (Program.of_list cs) in
    let (_ : int) = Machine.spawn m (Program.of_list cs2) in
    (Machine.run m).Machine.cycles
  in
  check "contention dilates total cycles" true (run ~contended:true >= run ~contended:false)

let test_machine_max_steps () =
  let m =
    Machine.create ~max_steps:10 ~allocator:Machine.Native
      ~make_detector:(fun _ -> Hooks.null ~name:"test")
      ()
  in
  let forever = Program.unfold (fun () -> Some (Op.Yield, ())) () in
  let (_ : int) = Machine.spawn m forever in
  check "runaway detected" true
    (try
       ignore (Machine.run m);
       false
     with Machine.Stuck _ -> true)

(* {1 Schedule policies and replay} *)

(* The machine keeps no pick tape; tests capture picks through the
   [on_pick] hook, the way the record/replay layer does. *)
let capture_picks picks (h : Hooks.t) =
  { h with Hooks.on_pick = (fun ~tid -> picks := tid :: !picks; h.Hooks.on_pick ~tid) }

let two_thread_machine ?seed ?schedule () =
  let picks = ref [] in
  let m = Machine.create ?seed ?schedule ~allocator:Machine.Native
      ~make_detector:(fun _ -> capture_picks picks (Hooks.null ~name:"test")) ()
  in
  let (_ : int) = Machine.spawn m (Program.of_list [ Op.Compute 1; Op.Compute 2; Op.Compute 3 ]) in
  let (_ : int) = Machine.spawn m (Program.of_list [ Op.Compute 10; Op.Compute 20 ]) in
  let report = Machine.run m in
  (report, Array.of_list (List.rev !picks))

let test_schedule_replay_exact () =
  let original, tape = two_thread_machine ~seed:9 () in
  let replayed, replayed_tape =
    two_thread_machine ~schedule:(Kard_sched.Schedule.Replay tape) ()
  in
  check "same trace" true (tape = replayed_tape);
  check_int "same cycles" original.Machine.cycles replayed.Machine.cycles

let test_schedule_round_robin () =
  let _, a = two_thread_machine ~schedule:Kard_sched.Schedule.Round_robin () in
  let _, b = two_thread_machine ~schedule:Kard_sched.Schedule.Round_robin () in
  check "deterministic" true (a = b);
  (* Strict alternation while both threads are runnable. *)
  check "alternates" true
    (match Array.to_list a with
    | 0 :: 1 :: 0 :: 1 :: _ -> true
    | _ -> false)

let test_schedule_replay_short_tape () =
  (* A truncated tape falls back to round-robin rather than failing. *)
  let r, picks = two_thread_machine ~schedule:(Kard_sched.Schedule.Replay [| 1; 1 |]) () in
  check "run completes" true (r.Machine.cycles > 0);
  check "tape followed, then round-robin" true
    (Array.to_list picks = [ 1; 1; 0; 1; 0; 0; 0 ])

let runnable_of_list tids =
  let set = Kard_sched.Runnable_set.create () in
  List.iter (Kard_sched.Runnable_set.add set) tids;
  set

let test_schedule_pick_unit () =
  let st = Kard_sched.Schedule.start (Kard_sched.Schedule.Replay [| 2; 0 |]) in
  let runnable = runnable_of_list [ 0; 1; 2 ] in
  check_int "replays 2" 2 (Kard_sched.Schedule.pick st ~runnable);
  check_int "replays 0" 0 (Kard_sched.Schedule.pick st ~runnable);
  (* Tape exhausted: round-robin continues after the last pick. *)
  check_int "falls back after tape" 1 (Kard_sched.Schedule.pick st ~runnable)

(* Replay determinism over a genuinely contended, faulting workload:
   the safety net for the scheduler/TLB refactors.  A full Kard run is
   recorded under [Random] and re-executed under [Replay]; every field
   of the report — total and per-thread cycles, faults, hardware
   counters, RSS — and the pick sequence must be bit-identical. *)
let contended_kard_report ?schedule ~seed () =
  let cell = ref None in
  let picks = ref [] in
  let m =
    Machine.create ?schedule ~seed
      ~allocator:(Machine.Unique_page { granule = 32; recycle_virtual_pages = false })
      ~make_detector:(fun env ->
        capture_picks picks
          (Kard_core.Detector.make ~config:Kard_core.Config.default ~cell env))
      ()
  in
  let profile =
    { Kard_workloads.Synth.default with
      Kard_workloads.Synth.locks = 2;
      sites = 6;
      entries = 600;
      min_entries = 600;
      shared_rw = 8;
      shared_ro = 4;
      rw_writes_per_entry = 3;
      ro_reads_per_entry = 2;
      cs_compute = 500;
      churn_per_entry = 0.5;
      mode = Kard_workloads.Synth.Striped }
  in
  Kard_workloads.Synth.build profile ~threads:8 ~scale:1.0 ~seed:5 m;
  let report = Machine.run m in
  (report, Array.of_list (List.rev !picks))

let test_replay_full_report_identical () =
  let original, tape = contended_kard_report ~seed:11 () in
  (* The workload must actually exercise the refactored paths. *)
  check "workload contends" true (original.Machine.contended_entries > 0);
  check "workload faults" true (original.Machine.faults > 0);
  check "multi-threaded" true (Array.length original.Machine.per_thread_cycles = 8);
  let replayed, replayed_tape =
    contended_kard_report ~schedule:(Kard_sched.Schedule.Replay tape) ~seed:11 ()
  in
  check "full report is bit-identical" true (original = replayed);
  check "pick sequence is identical" true (tape = replayed_tape);
  (* Same workload, different seed: must diverge (the test would be
     vacuous if the report ignored the schedule). *)
  let _, other_tape = contended_kard_report ~seed:12 () in
  check "different schedule differs" true (other_tape <> tape)

let test_random_seed_determinism_full_report () =
  let a = contended_kard_report ~seed:3 () in
  let b = contended_kard_report ~seed:3 () in
  check "same seed, same full report" true (a = b)

(* {1 Waiter dilation} *)

(* Locks, unlocks and the null detector cost nothing here, so every
   cycle in a report is either compute or dilation. *)
let free_locks =
  { Kard_mpk.Cost_model.default with
    Kard_mpk.Cost_model.lock_uncontended = 0;
    lock_contended = 0;
    unlock = 0 }

(* Run [programs] under an exact pick [tape], recording the virtual
   clock at every pick; fails if the machine left the tape. *)
let run_tape programs tape =
  let picks = ref [] and clocks = ref [] in
  let m =
    Machine.create ~cost:free_locks ~schedule:(Kard_sched.Schedule.Replay tape)
      ~allocator:Machine.Native
      ~make_detector:(fun env ->
        capture_picks picks
          { (Hooks.null ~name:"test") with
            Hooks.on_pick = (fun ~tid:_ -> clocks := env.Hooks.now () :: !clocks) })
      ()
  in
  List.iter (fun ops -> ignore (Machine.spawn m (Program.of_list ops) : int)) programs;
  let report = Machine.run m in
  check "schedule followed the tape" true (Array.of_list (List.rev !picks) = tape);
  (report, Array.of_list (List.rev !clocks))

let lock l = Op.Lock { lock = l; site = l }
let unlock l = Op.Unlock { lock = l }

(* A holds L1 and L2; B waits on L1, C on L2; A computes 100.  B and C
   each gain 100 and the clock gains 300: 100 for A, 100 per waiter. *)
let test_dilation_nested_locks () =
  let a = [ lock 1; lock 2; Op.Compute 100; unlock 2; unlock 1 ] in
  let b = [ lock 1; unlock 1 ] in
  let c = [ lock 2; unlock 2 ] in
  let tape = [| 0; 0; 1; 2; 0; 0; 0; 0; 1; 1; 2; 2 |] in
  let r, clocks = run_tape [ a; b; c ] tape in
  check_int "the compute step advances the clock by 300" 300 (clocks.(5) - clocks.(4));
  check "each waiter gains 100" true (r.Machine.per_thread_cycles = [| 100; 100; 100 |]);
  check_int "total" 300 r.Machine.cycles;
  check_int "wall" 100 r.Machine.wall_cycles

(* B waits on L1 behind A, is granted it, computes while D waits
   behind it, then re-blocks on L2 behind C.  Each wait is settled
   against its own lock: B gains A's 100 and C's later 7, but not
   C's earlier 40 (nobody waited on L2 then) and not its own 20; D
   gains A's 100 and B's 20. *)
let test_dilation_settled_per_lock () =
  let a = [ lock 1; Op.Compute 100; unlock 1 ] in
  let b = [ lock 1; Op.Compute 20; unlock 1; lock 2; unlock 2 ] in
  let c = [ lock 2; Op.Compute 40; Op.Compute 7; unlock 2 ] in
  let d = [ lock 1; unlock 1 ] in
  let tape = [| 0; 1; 3; 2; 0; 2; 0; 0; 1; 1; 1; 3; 3; 2; 2; 2; 1; 1 |] in
  let r, _ = run_tape [ a; b; c; d ] tape in
  check "per-thread cycles" true (r.Machine.per_thread_cycles = [| 100; 127; 47; 120 |]);
  check_int "the clock is the sum" 394 r.Machine.cycles;
  check_int "wall" 127 r.Machine.wall_cycles

(* Digests of [per_thread_cycles] and [wall_cycles], computed with
   the eager per-waiter charging this machine replaced: settling per
   lock must not move a single thread's cycles. *)
let dilation_golden =
  (* workload, thread override, vkey pool, seed, wall_cycles, digest *)
  [ ("convoy", None, 0, 1, 256293, "9b8658808c106e2c679f44ef21d9853c");
    ("convoy", None, 0, 2, 237193, "0de6e441c717b93f3d5b7bb46633d98f");
    ("convoy", None, 0, 3, 237901, "cab798da6387a61e736007e194f070f0");
    ("memcached", Some 8, 0, 1, 43289327, "07d8b9d2a1db0a8d57bff97613508f7e");
    ("memcached", Some 8, 0, 2, 43262800, "652d50a52db3ac3b679023bd352bddb5");
    ("memcached", Some 8, 0, 3, 43241625, "b7483b076c6d6784e54d83bdcc734fae");
    ("keys-10k", None, 192, 1, 42827910, "857b94082cebe4fa02d9e843cf9dd6c9");
    ("keys-10k", None, 192, 2, 42070345, "4295191f3ef5c3a1957ab9300778ccf6");
    ("keys-10k", None, 192, 3, 41442868, "b4ddcd6b8a2d3646e5e55d90c8f430ad");
    ("aget", Some 16, 0, 1, 2557039, "59950a5437bba68ce8def6acc592c8e3");
    ("aget", Some 16, 0, 2, 2619928, "188090c2f4ea519afd0f3fc0a1808ec4");
    ("aget", Some 16, 0, 3, 2621896, "199ba093fc60cb006b1f0c01b3d7ebc7") ]

let test_dilation_golden () =
  List.iter
    (fun (name, threads, vkeys, seed, wall, digest) ->
      let config = { Kard_core.Config.default with Kard_core.Config.vkeys } in
      let r =
        Kard_harness.Runner.run ?threads ~seed ~detector:(Kard_harness.Runner.Kard config)
          (Kard_workloads.Registry.find name)
      in
      let rep = r.Kard_harness.Runner.report in
      let label = Printf.sprintf "%s seed %d" name seed in
      check_int (label ^ " wall") wall rep.Machine.wall_cycles;
      Alcotest.(check string)
        (label ^ " per-thread digest") digest
        (Digest.to_hex
           (Digest.string
              (String.concat "," (List.map string_of_int (Array.to_list rep.Machine.per_thread_cycles))
              ^ ";" ^ string_of_int rep.Machine.wall_cycles))))
    dilation_golden

let test_sim_clock () =
  let c = Sim_clock.create () in
  Sim_clock.advance c 5;
  Sim_clock.advance c 7;
  check_int "advances" 12 (Sim_clock.now c);
  Sim_clock.reset c;
  check_int "resets" 0 (Sim_clock.now c)

let () =
  Alcotest.run "kard_sched"
    [ ( "program",
        [ Alcotest.test_case "of_list" `Quick test_program_of_list;
          Alcotest.test_case "append/concat" `Quick test_program_append_concat;
          Alcotest.test_case "repeat is lazy" `Quick test_program_repeat_lazy;
          Alcotest.test_case "unfold" `Quick test_program_unfold;
          Alcotest.test_case "delay" `Quick test_program_delay;
          Alcotest.test_case "with_setup" `Quick test_program_with_setup ] );
      ( "runnable_set",
        [ Alcotest.test_case "basic" `Quick test_runnable_set_basic;
          Alcotest.test_case "order statistics" `Quick test_runnable_set_order_statistics;
          Alcotest.test_case "grows" `Quick test_runnable_set_grows;
          Alcotest.test_case "oracle cross-check" `Quick test_runnable_set_exhaustive_vs_list ] );
      ( "lock_table",
        [ Alcotest.test_case "acquire/release" `Quick test_lock_acquire_release;
          Alcotest.test_case "fifo wakeup" `Quick test_lock_fifo;
          Alcotest.test_case "errors" `Quick test_lock_errors;
          Alcotest.test_case "stats" `Quick test_lock_stats;
          Alcotest.test_case "held-lock index" `Quick test_lock_held_index;
          Alcotest.test_case "waiter iteration" `Quick test_lock_waiter_iteration ] );
      ( "machine",
        [ Alcotest.test_case "compute/io" `Quick test_machine_compute_io;
          Alcotest.test_case "alloc and access" `Quick test_machine_alloc_and_access;
          Alcotest.test_case "lock stats" `Quick test_machine_lock_cs_stats;
          Alcotest.test_case "finish holding lock" `Quick test_machine_deadlock_detected;
          Alcotest.test_case "blocked thread waits" `Quick test_machine_blocked_thread_waits;
          Alcotest.test_case "determinism" `Quick test_machine_determinism;
          Alcotest.test_case "block op" `Quick test_machine_block_op;
          Alcotest.test_case "stall accounting" `Quick test_machine_stall_accounting;
          Alcotest.test_case "max steps" `Quick test_machine_max_steps;
          Alcotest.test_case "sim clock" `Quick test_sim_clock ] );
      ( "schedule",
        [ Alcotest.test_case "replay is exact" `Quick test_schedule_replay_exact;
          Alcotest.test_case "round robin" `Quick test_schedule_round_robin;
          Alcotest.test_case "short tape fallback" `Quick test_schedule_replay_short_tape;
          Alcotest.test_case "pick unit" `Quick test_schedule_pick_unit;
          Alcotest.test_case "replay full report (contended, faulting)" `Quick
            test_replay_full_report_identical;
          Alcotest.test_case "seeded full-report determinism" `Quick
            test_random_seed_determinism_full_report ] );
      ( "dilation",
        [ Alcotest.test_case "nested locks, hand-computed" `Quick test_dilation_nested_locks;
          Alcotest.test_case "re-blocking waiter settled per lock" `Quick
            test_dilation_settled_per_lock;
          Alcotest.test_case "per-thread cycles match eager charging" `Quick
            test_dilation_golden ] ) ]
