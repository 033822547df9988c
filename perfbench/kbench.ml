(* The simulator benchmark: host speed and simulated cost of whole runs,
   measured from outside the library.

   Every layer is timed through public entry points only:
   [Runner.run_build] with a build callback that stamps the end of
   set-up, a [~wrap] around the detector's [Hooks.t] that times the
   hooks which do not touch memory accesses, [Replay.Recorder.wrap] and
   [Replayer], [Campaign.reconstruct] + [Fuzz.Harness.run], and the
   bechamel micro-benchmarks of the MPK/TLB/allocator hot paths.  Load
   comes from one Domain: every machine runs at shards 1, fuzz programs
   included, so no drain Domain competes for the host's other core (the
   campaign's shard gate, which needs shards >= 2, is therefore off).

   Workloads, and the layer each one exercises while another bypasses it:

   - [memcached]: full Kard, 4 threads, default config.  The paper's
     real-world headline; detector time goes to section entry/exit
     (on_lock/on_unlock), so it is the bypass side of any change to
     the fault path or the key cache.
   - [convoy]: full Kard, 64 simulated threads on one lock.  The
     scheduler, lock table and waiter dilation dominate; the detector
     is ~1% of host time.  The exercise side of an engine change.
   - [keys-10k-vkeys]: keys-10k with a 192-entry virtual-key pool.
     Fault handling and vkey eviction dominate — the workload for the
     key-provider seam, idle on the other two.
   - [fuzz]: campaign programs through the four-oracle harness with
     their rotation config (replay gate included).  Many tiny
     machines: set-up, oracles and classification dominate.

   Which end-to-end metric each per-layer metric should move, and where:

   - sched.* (Machine, Schedule, Lock_table): steps_per_s and op_ms on
     convoy; little on keys-10k-vkeys.
   - core.* (Detector hooks): steps_per_s and words_per_step on
     keys-10k-vkeys (on_fault) and memcached (on_lock); none on convoy.
   - vkey.* (Vkey, Key_assign): steps_per_s and sim_overhead_pct on
     keys-10k-vkeys; zero on memcached and convoy.
   - mpk.* (Mpk_hw, Tlb, Pkru): sim_overhead_pct and steps_per_s on
     memcached and keys-10k-vkeys.
   - alloc.* (Unique_page_alloc, vm): setup_s and words_per_step on
     keys-10k-vkeys; little on convoy.
   - sampling/replay/obs ladder deltas: nothing on the end-to-end
     workloads (those layers are off there); replay moves ops_per_s on
     fuzz through the replay gate.
   - fuzz.* (Prog, Harness, Oracles): ops_per_s and setup_s on fuzz.
   - gc.* and trace_overhead_pct: peak_heap_mb and words_per_step
     everywhere. *)

module Runner = Kard_harness.Runner
module Defaults = Kard_harness.Defaults
module Record = Kard_harness.Record
module Machine = Kard_sched.Machine
module Hooks = Kard_sched.Hooks
module Config = Kard_core.Config
module Detector = Kard_core.Detector
module Race_record = Kard_core.Race_record
module Divergence = Kard_core.Divergence
module Campaign = Kard_fuzz.Campaign
module Harness = Kard_fuzz.Harness
module Prog = Kard_fuzz.Prog
module Log = Kard_replay.Log
module Recorder = Kard_replay.Recorder
module Replayer = Kard_replay.Replayer

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let ms_of_ns ns = float_of_int ns /. 1e6

(* {1 Pinned knobs} *)

(* [Defaults.kard_config ()] and [Runner.run]'s shard default read
   these; the benchmark builds every config itself and refuses to run
   under an override rather than silently measure something else. *)
let pinned_env =
  [ Defaults.shards_env; Defaults.vkeys_env; Defaults.sampling_env; Defaults.jobs_env ]

let env_overrides () = List.filter (fun v -> Sys.getenv_opt v <> None) pinned_env

(* Workload seeds are folded into the pinned range, so every run is
   checked against a recorded invariant. *)
let pinned_seeds = 64
let input_seed seed = ((seed mod pinned_seeds) + pinned_seeds) mod pinned_seeds

(* {1 Workloads} *)

type item = {
  name : string;
  threads : int;
  mseed : int;  (** Machine (schedule) seed. *)
  config : Config.t;
  build : Machine.t -> unit;
}
(** One machine's worth of input: a registry workload, or one fuzz
    program's primary machine. *)

type fuzz_prog = { index : int; rp : Campaign.reconstructed }

type workload =
  | Run of item
  | Fuzz of { seed : int; progs : fuzz_prog array }

let workload_names = [ "memcached"; "convoy"; "keys-10k-vkeys"; "fuzz" ]

let fuzz_batch ~tiny = if tiny then 15 else 1500

let make_workload ~tiny name seed =
  let seed = input_seed seed in
  (* Each spec runs at its own default thread count, as [kard run]
     does: 4 for memcached, 64 for convoy, 8 for keys-10k. *)
  let spec_item ~spec ~scale ~config =
    let scale = if tiny then scale /. 50. else scale in
    let threads = spec.Kard_workloads.Spec.default_threads in
    Run
      { name = spec.Kard_workloads.Spec.name; threads; mseed = seed; config;
        build = (fun m -> spec.Kard_workloads.Spec.build ~threads ~scale ~seed m) }
  in
  match name with
  | "memcached" ->
    spec_item ~spec:(Kard_workloads.Registry.find "memcached") ~scale:1.0 ~config:Config.default
  | "convoy" -> spec_item ~spec:Kard_workloads.Contended.convoy ~scale:1.0 ~config:Config.default
  | "keys-10k-vkeys" ->
    spec_item ~spec:Kard_workloads.Keypressure.keys_10k ~scale:1.0
      ~config:{ Config.default with Config.vkeys = 192 }
  | "fuzz" ->
    Fuzz
      { seed;
        progs =
          Array.init (fuzz_batch ~tiny) (fun index ->
              { index; rp = Campaign.reconstruct ~seed index }) }
  | other -> invalid_arg ("unknown workload " ^ other)

let prog_item (p : fuzz_prog) =
  let rp = p.rp in
  { name = Printf.sprintf "fuzz-%d" p.index;
    threads = rp.Campaign.rp_prog.Prog.workers + 1;
    mseed = rp.Campaign.rp_machine_seed;
    config = rp.Campaign.rp_config;
    build =
      (fun machine ->
        ignore (Prog.spawn_all rp.Campaign.rp_prog ~machine ~on_event:ignore : Prog.run_ctx)) }

let items = function
  | Run item -> [| item |]
  | Fuzz { progs; _ } -> Array.map prog_item progs

(* {1 One timed machine run} *)

type timed = {
  result : Runner.result;
  op_ns : int;        (** Call into [run_build] to its return. *)
  setup_ns : int;     (** Call into [run_build] to the build callback's return. *)
  minor_words : float;
  promoted_words : float;
  major_collections : int;
}

let run_item ?schedule ?wrap ?trace ~detector (it : item) =
  let g0 = Gc.quick_stat () in
  let t0 = now_ns () in
  let built = ref t0 in
  let result =
    Runner.run_build ?schedule ?wrap ?trace ~shards:1 ~threads:it.threads ~scale:1.0
      ~seed:it.mseed ~detector
      (fun m ->
        it.build m;
        built := now_ns ())
      it.name
  in
  let t1 = now_ns () in
  let g1 = Gc.quick_stat () in
  { result; op_ns = t1 - t0; setup_ns = !built - t0;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections }

(* {1 Simulated invariants} *)

let race_digest (r : Runner.result) =
  let buf = Buffer.create 256 in
  let add tag races =
    List.iter
      (fun x -> Buffer.add_string buf (Format.asprintf "%s %a\n" tag Race_record.pp x))
      races
  in
  add "race" r.Runner.kard_races;
  add "ilu" r.Runner.kard_ilu_races;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* What a speed-only change must leave byte-identical. *)
let invariants (r : Runner.result) =
  let rep = r.Runner.report in
  [ ("steps", string_of_int rep.Machine.steps);
    ("cycles", string_of_int rep.Machine.cycles);
    ("faults", string_of_int rep.Machine.faults);
    ("cs_entries", string_of_int rep.Machine.cs_entries);
    ("races", string_of_int (List.length r.Runner.kard_races));
    ("race_digest", race_digest r) ]

(* Per-program fuzz verdict: what the harness must keep answering. *)
let outcome_key (o : Harness.outcome) =
  String.concat "," (List.map Divergence.name o.Harness.classes)
  ^ (if o.Harness.unexpected then "!" else "")
  ^ match o.Harness.stuck with Some m -> "stuck:" ^ m | None -> ""

let run_fuzz_prog ~seed (p : fuzz_prog) =
  let t0 = now_ns () in
  let rp = Campaign.reconstruct ~seed p.index in
  let t1 = now_ns () in
  let outcome =
    Harness.run ~config:rp.Campaign.rp_config ~shards:1
      ~replay:rp.Campaign.rp_replay ~replay_target:(Campaign.target ~seed p.index)
      ~seed:rp.Campaign.rp_machine_seed rp.Campaign.rp_prog
  in
  (outcome, t1 - t0, now_ns () - t1)

(* {1 Pins} *)

type pins = (string * int, (string * string) list) Hashtbl.t

let pins_of_lines lines : pins =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun line ->
      match String.split_on_char ' ' (String.trim line) with
      | [] | [ "" ] -> ()
      | w :: _ when String.length w > 0 && w.[0] = '#' -> ()
      | w :: s :: kvs ->
        let kv x =
          match String.index_opt x '=' with
          | Some i -> (String.sub x 0 i, String.sub x (i + 1) (String.length x - i - 1))
          | None -> failwith ("pins: malformed field " ^ x)
        in
        Hashtbl.replace tbl (w, int_of_string s) (List.map kv kvs)
      | _ -> failwith ("pins: malformed line " ^ line))
    lines;
  tbl

let load_pins path =
  pins_of_lines (String.split_on_char '\n' (In_channel.with_open_text path In_channel.input_all))

let pin_line workload seed kvs =
  String.concat " "
    (workload :: string_of_int seed :: List.map (fun (k, v) -> k ^ "=" ^ v) kvs)

(* {1 Statistics} *)

let quantile q xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let lo = truncate pos in
    let hi = min (lo + 1) (Array.length a - 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

(* {1 The hook-wrapping tracer} *)

(* Only the hooks that never see a memory access are wrapped, and
   [pure_access] is inherited through [{ h with ... }]: the traced
   machine picks the same engine as the untraced one and charges the
   same cycles. *)
let hook_names =
  [| "on_lock"; "on_unlock"; "on_fault"; "on_alloc"; "on_spawn"; "on_thread_exit"; "on_finish" |]

type tracer = { calls : int array; ns : int array; mutable picks : int }

let tracer () =
  { calls = Array.make (Array.length hook_names) 0;
    ns = Array.make (Array.length hook_names) 0;
    picks = 0 }

let hook_ns t = Array.fold_left ( + ) 0 t.ns

let wrap_hooks t (_ : Hooks.env) (h : Hooks.t) =
  let stop i t0 =
    t.ns.(i) <- t.ns.(i) + (now_ns () - t0);
    t.calls.(i) <- t.calls.(i) + 1
  in
  { h with
    Hooks.on_pick =
      (fun ~tid ->
        t.picks <- t.picks + 1;
        h.Hooks.on_pick ~tid);
    on_lock =
      (fun ~tid ~lock ~site ->
        let t0 = now_ns () in
        let c = h.Hooks.on_lock ~tid ~lock ~site in
        stop 0 t0; c);
    on_unlock =
      (fun ~tid ~lock ->
        let t0 = now_ns () in
        let c = h.Hooks.on_unlock ~tid ~lock in
        stop 1 t0; c);
    on_fault =
      (fun f ->
        let t0 = now_ns () in
        let o = h.Hooks.on_fault f in
        stop 2 t0; o);
    on_alloc =
      (fun ~tid m ->
        let t0 = now_ns () in
        let c = h.Hooks.on_alloc ~tid m in
        stop 3 t0; c);
    on_spawn =
      (fun ~tid ->
        let t0 = now_ns () in
        let c = h.Hooks.on_spawn ~tid in
        stop 4 t0; c);
    on_thread_exit =
      (fun ~tid ->
        let t0 = now_ns () in
        let c = h.Hooks.on_thread_exit ~tid in
        stop 5 t0; c);
    on_finish =
      (fun () ->
        let t0 = now_ns () in
        h.Hooks.on_finish ();
        stop 6 t0) }

(* {1 The layer ladder} *)

let ladder_rungs =
  let vkeys = { Config.default with Config.vkeys = 192 } in
  let sampled = { vkeys with Config.sampling = 0.25 } in
  [ ("baseline", Runner.Baseline, `Plain);
    ("alloc", Runner.Alloc, `Plain);
    ("kard", Runner.Kard Config.default, `Plain);
    ("vkeys", Runner.Kard vkeys, `Plain);
    ("sampling", Runner.Kard sampled, `Plain);
    ("recorder", Runner.Kard sampled, `Record);
    ("trace", Runner.Kard sampled, `Record_trace) ]

(* {1 Bechamel micro-benchmarks} *)

let bechamel_tests () =
  let open Bechamel in
  let mpk_check =
    let hw = Kard_mpk.Mpk_hw.create () in
    Kard_mpk.Mpk_hw.register_thread hw 0;
    let (_ : int) =
      Kard_mpk.Mpk_hw.pkey_mprotect hw ~base:0x10000 ~len:4096 (Kard_mpk.Pkey.of_int 3)
    in
    Test.make ~name:"mpk.check_access_ns"
      (Staged.stage (fun () ->
           ignore
             (Kard_mpk.Mpk_hw.check_access hw ~tid:0 ~addr:0x10010 ~access:`Read ~ip:0 ~time:0
               : (int, Kard_mpk.Fault.t) result)))
  in
  let tlb =
    let tlb = Kard_mpk.Tlb.create () in
    let i = ref 0 in
    Test.make ~name:"mpk.tlb_access_ns"
      (Staged.stage (fun () ->
           incr i;
           ignore (Kard_mpk.Tlb.access tlb (!i land 127) : [ `Hit | `Miss ])))
  in
  let pkru =
    Test.make ~name:"mpk.pkru_set_ns"
      (Staged.stage (fun () ->
           ignore
             (Kard_mpk.Pkru.set Kard_mpk.Pkru.deny_all (Kard_mpk.Pkey.of_int 5)
                Kard_mpk.Perm.Read_write
               : Kard_mpk.Pkru.t)))
  in
  let algorithm =
    let t = Kard_core.Algorithm.create () in
    let i = ref 0 in
    Test.make ~name:"core.algorithm_step_ns"
      (Staged.stage (fun () ->
           incr i;
           let thread = !i land 1 in
           ignore (Kard_core.Algorithm.step t (Kard_core.Algorithm.Enter { thread; section = 1 }));
           ignore (Kard_core.Algorithm.step t (Kard_core.Algorithm.Write { thread; obj = 1 }));
           ignore (Kard_core.Algorithm.step t (Kard_core.Algorithm.Exit { thread }))))
  in
  let unique_alloc =
    let phys = Kard_vm.Phys_mem.create () in
    let aspace = Kard_vm.Address_space.create phys in
    let meta = Kard_alloc.Meta_table.create () in
    let upa =
      Kard_alloc.Unique_page_alloc.create aspace ~meta ~cost:Kard_mpk.Cost_model.default ()
    in
    let iface = Kard_alloc.Unique_page_alloc.iface upa in
    Test.make ~name:"alloc.unique_alloc_ns"
      (Staged.stage (fun () ->
           ignore (iface.Kard_alloc.Alloc_iface.alloc ~site:0 32 : Kard_alloc.Obj_meta.t * int)))
  in
  [ mpk_check; tlb; pkru; algorithm; unique_alloc ]

let run_bechamel ~quota =
  let open Bechamel in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second quota) ~kde:None () in
  List.map
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      let results =
        Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
          Toolkit.Instance.monotonic_clock raw
      in
      let est =
        Hashtbl.fold
          (fun _ r acc ->
            match Analyze.OLS.estimates r with Some [ e ] -> e | _ -> acc)
          results nan
      in
      (Test.name test, est))
    (bechamel_tests ())

(* {1 Metric tables} *)

let end_to_end =
  [ ("steps_per_s", "1/s"); ("ops_per_s", "1/s"); ("op_ms.p50", "ms"); ("op_ms.p90", "ms");
    ("setup_s", "s"); ("words_per_step", "words"); ("peak_heap_mb", "MB");
    ("sim_overhead_pct", "%") ]

let ladder_metrics =
  List.concat_map
    (fun (r, _, _) -> [ ("ladder." ^ r ^ ".ns_per_step", "ns"); ("ladder." ^ r ^ ".words_per_step", "words") ])
    ladder_rungs

let per_layer =
  [ ("sched.picks", "count/op"); ("sched.self_ms", "ms"); ("sched.ns_per_step", "ns");
    ("sched.contended_entries", "count/op") ]
  @ List.concat_map
      (fun h -> [ ("core." ^ h ^ ".calls", "count/op"); ("core." ^ h ^ ".ms", "ms") ])
      (Array.to_list hook_names)
  @ [ ("core.share", "ratio"); ("core.ns_per_step_delta", "ns"); ("core.algorithm_step_ns", "ns");
      ("vkey.hits", "count/op"); ("vkey.misses", "count/op"); ("vkey.evictions", "count/op");
      ("vkey.loads", "count/op"); ("vkey.stalls", "count/op"); ("vkey.retag_pages", "count/op");
      ("vkey.ns_per_step_delta", "ns");
      ("mpk.wrpkru", "count/op"); ("mpk.pkey_mprotect", "count/op");
      ("mpk.pages_retagged", "count/op"); ("mpk.faults", "count/op");
      ("mpk.dtlb_misses", "count/op"); ("mpk.check_access_ns", "ns"); ("mpk.tlb_access_ns", "ns");
      ("mpk.pkru_set_ns", "ns");
      ("alloc.ns_per_step_delta", "ns"); ("alloc.unique_alloc_ns", "ns");
      ("alloc.objects", "count/op"); ("alloc.pages", "count/op");
      ("sampling.ns_per_step_delta", "ns"); ("replay.record_ns_per_step_delta", "ns");
      ("replay.bytes_per_step", "B"); ("replay.replay_ns_per_step", "ns");
      ("obs.trace_ns_per_step_delta", "ns");
      ("fuzz.reconstruct_ms", "ms"); ("fuzz.harness_ms", "ms"); ("fuzz.divergent", "count");
      ("fuzz.unexpected", "count");
      ("gc.promoted_words_per_step", "words"); ("gc.major_collections", "count/op");
      ("trace_overhead_pct", "%") ]
  @ ladder_metrics

(* {1 A benchmark run} *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit — table order. *)
  raw_metrics : (string * float * string) list;
      (** The same with host times unscaled by the calibration. *)
  notes : string list;  (** Human-readable lines printed above the result. *)
}

type counters = {
  mutable attempted : int;
  mutable failed : int;
}

let check c ok =
  c.attempted <- c.attempted + 1;
  if not ok then c.failed <- c.failed + 1

(* Reference outputs of one workload input, computed untimed before the
   measured phase and checked against the pins. *)
type reference = {
  kard : Runner.result array;      (** Per item, under the workload's config. *)
  baseline_cycles : int;           (** Sum over items. *)
  verdicts : string array;         (** Fuzz: per-program outcome key. *)
  divergent : int;
  unexpected : int;
  pin : (string * string) list;    (** The observed pin line. *)
}

let reference workload =
  let its = items workload in
  let kard = Array.map (fun it -> (run_item ~detector:(Runner.Kard it.config) it).result) its in
  let baseline_cycles =
    Array.fold_left
      (fun acc it -> acc + (run_item ~detector:Runner.Baseline it).result.Runner.report.Machine.cycles)
      0 its
  in
  match workload with
  | Run _ ->
    { kard; baseline_cycles; verdicts = [||]; divergent = 0; unexpected = 0;
      pin = invariants kard.(0) @ [ ("baseline_cycles", string_of_int baseline_cycles) ] }
  | Fuzz { seed; progs } ->
    let outcomes = Array.map (fun p -> let o, _, _ = run_fuzz_prog ~seed p in o) progs in
    let count f = Array.fold_left (fun n o -> if f o then n + 1 else n) 0 outcomes in
    let divergent = count (fun o -> o.Harness.divergent <> [] || o.Harness.stuck <> None) in
    let unexpected = count (fun o -> o.Harness.unexpected) in
    let classes =
      List.filter_map
        (fun cls ->
          let n = count (fun o -> List.exists (Divergence.equal cls) o.Harness.classes) in
          if n = 0 then None else Some ("class." ^ Divergence.name cls, string_of_int n))
        Divergence.all
    in
    let sum f = Array.fold_left (fun acc r -> acc + f r.Runner.report) 0 kard in
    { kard; baseline_cycles; verdicts = Array.map outcome_key outcomes; divergent;
      unexpected;
      pin =
        [ ("programs", string_of_int (Array.length progs));
          ("steps", string_of_int (sum (fun r -> r.Machine.steps)));
          ("cycles", string_of_int (sum (fun r -> r.Machine.cycles)));
          ("baseline_cycles", string_of_int baseline_cycles);
          ("divergent", string_of_int divergent);
          ("unexpected", string_of_int unexpected) ]
        @ classes }

let total_steps (r : reference) =
  Array.fold_left (fun acc x -> acc + x.Runner.report.Machine.steps) 0 r.kard

let sim_overhead_pct (r : reference) =
  let cycles = Array.fold_left (fun acc x -> acc + x.Runner.report.Machine.cycles) 0 r.kard in
  if r.baseline_cycles = 0 then 0.
  else float_of_int (cycles - r.baseline_cycles) /. float_of_int r.baseline_cycles *. 100.

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* {1 Host-speed calibration} *)

(* The host is shared, and its speed shifts by 20-30% from one few
   seconds to the next: far more than the changes the benchmark has to
   resolve.  So every run also times a fixed calibration kernel, code
   that owes nothing to the simulator, between operations, and reports
   host times scaled to a nominal host on which the kernel takes
   [kernel_ref_ms].  A busier host slows the kernel and the simulator
   alike and cancels out; a change to the simulator moves the scaled
   figures exactly as it moves the raw ones, which every run prints
   next to them.

   The kernel is hash-table churn, lookups and updates through freshly
   allocated buckets and list cells: the kind of work the simulator
   does.  Timing a fixed simulator operation (memcached and keys-10k at
   reduced scale) between kernels in 8 processes of 30 s, op time over
   kernel time varied across processes by 0.01 and 0.07 (IQR over
   median) with this kernel, by 0.14 and 0.11 with an allocating loop
   over a 64 KB int table, and by 0.35 and 0.45 unscaled.

   Its time owes nothing to the heap the simulator leaves behind.  It
   starts on an empty minor heap and allocates less than the minor heap
   holds (about 100k of the default 256k words), so no collection runs
   inside it: nothing is promoted, the major GC gets no work, and its
   table is dead when it returns. *)
let kernel_ref_ms = 1.5

let calibration_kernel () =
  let h = Hashtbl.create 128 in
  let x = ref 12345 and acc = ref 0 in
  for i = 0 to 20_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let k = !x land 255 in
    match Hashtbl.find_opt h k with
    | Some l when List.length l < 4 -> Hashtbl.replace h k (i :: l)
    | Some l ->
      acc := !acc + List.hd l;
      Hashtbl.replace h k [ i ]
    | None -> Hashtbl.replace h k [ i ]
  done;
  !acc

type calibration = {
  mutable samples : (int * float) list;  (** (when taken, kernel ms), newest first. *)
  mutable last : int;
}

let calibration () = { samples = []; last = 0 }

(* Take a kernel sample when a quarter second has passed since the last
   one: before every run of the run workloads, every thousand or so
   fuzz programs.  A sample is the median of three back-to-back kernel
   timings, so a hiccup in one of them does not count. *)
let calibrate ?(force = false) cal =
  if force || now_ns () - cal.last >= 250_000_000 then begin
    let time_kernel () =
      (* Empty the minor heap first, so the kernel's allocation fits
         in it and no collection runs inside the timing. *)
      Gc.minor ();
      let t0 = now_ns () in
      ignore (Sys.opaque_identity (calibration_kernel ()) : int);
      ms_of_ns (now_ns () - t0)
    in
    let a = time_kernel () in
    let b = time_kernel () in
    let c = time_kernel () in
    let sample = Float.max (Float.min a b) (Float.min (Float.max a b) c) in
    cal.samples <- (now_ns (), sample) :: cal.samples;
    (* Collect the kernel's garbage now, not inside the next
       operation's set-up. *)
    Gc.minor ();
    cal.last <- now_ns ()
  end

(* An operation's time is scaled by the mean of the samples taken just
   before and just after it; metrics aggregated over a whole run by the
   run's median.  No scheme was best everywhere.  Over three sets of 4-6
   runs per workload, before+after kept the spread (IQR over median) of
   op_ms.p50 and ops_per_s on memcached and fuzz between 0.05 and 0.10
   each time; one scale per run ranged from 0.02 to 0.28, and medians
   of the 3-9 nearest samples from 0.02 to 0.14.  Before+after does
   widen memcached's op_ms.p90 (0.14-0.19 on those runs, against
   0.04-0.09 unscaled or scaled once per run; 0.09-0.11 over 10 seeds
   with the present kernel). *)
let op_scale cal ~start ~stop =
  let before = List.find_opt (fun (ts, _) -> ts <= start) cal.samples in
  let after = List.fold_left (fun acc (ts, ms) -> if ts >= stop then Some ms else acc) None cal.samples in
  match (before, after) with
  | Some (_, b), Some a -> kernel_ref_ms /. ((a +. b) /. 2.)
  | Some (_, k), None | None, Some k -> kernel_ref_ms /. k
  | None, None -> kernel_ref_ms /. median (List.map snd cal.samples)

let calibrated cal metrics =
  let s = kernel_ref_ms /. median (List.map snd cal.samples) in
  List.map
    (fun (name, v, unit) ->
      match unit with
      | "ns" | "ms" | "s" -> (name, v *. s, unit)
      | "1/s" -> (name, v /. s, unit)
      | _ -> (name, v, unit))
    metrics

(* Run [f] until [seconds] have passed and at least [min_ops] calls
   were made, calibrating between calls. *)
let repeat cal ~seconds ~min_ops f =
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let n = ref 0 in
  while !n < min_ops || now_ns () < deadline do
    calibrate cal;
    f !n;
    incr n
  done

(* One measured operation: a full run of the workload, or one fuzz
   program (reconstruct + harness).  Returns op time, set-up time,
   simulated steps and minor words, after checking the output. *)
let measured_op c ~pin_ok (ref_ : reference) workload i =
  match workload with
  | Run it ->
    (match run_item ~detector:(Runner.Kard it.config) it with
     | t ->
       check c (pin_ok && invariants t.result = invariants ref_.kard.(0));
       Some (t.op_ns, t.setup_ns, t.result.Runner.report.Machine.steps, t.minor_words)
     | exception _ -> check c false; None)
  | Fuzz { seed; progs } ->
    let k = i mod Array.length progs in
    let w0 = Gc.minor_words () in
    (match run_fuzz_prog ~seed progs.(k) with
     | outcome, rec_ns, harness_ns ->
       let w1 = Gc.minor_words () in
       check c (pin_ok && (not outcome.Harness.unexpected) && outcome_key outcome = ref_.verdicts.(k));
       (* Fuzz set-up is measured apart, by [fuzz_setup_pass]. *)
       Some (rec_ns + harness_ns, 0, ref_.kard.(k).Runner.report.Machine.steps, w1 -. w0)
     | exception _ -> check c false; None)

(* Fuzz set-up is reconstruct plus build, once per program of the batch.
   The harness builds its machines internally, so the build half is
   timed on a [run_build] of each program's primary machine.  Returns
   the pass's raw times and its calibration scale. *)
let fuzz_setup_pass cal ~seed progs =
  calibrate ~force:true cal;
  let start = now_ns () in
  let raw =
    Array.map
      (fun p ->
        let t0 = now_ns () in
        let rp = Campaign.reconstruct ~seed p.index in
        let t1 = now_ns () in
        let t = run_item ~detector:(Runner.Kard rp.Campaign.rp_config) (prog_item { p with rp }) in
        float_of_int (t1 - t0 + t.setup_ns))
      progs
  in
  let stop = now_ns () in
  calibrate ~force:true cal;
  (Array.to_list raw, op_scale cal ~start ~stop)

(* Returns the calibrated metrics, the same from raw times, and a note.
   The rates are work over summed operation time. *)
let end_to_end_run c cal ~pin_ok ~seconds ~min_ops ~peak_heap ref_ workload =
  (* Fuzz set-up passes run before and after the measured operations. *)
  let setup_pass () =
    match workload with Run _ -> [] | Fuzz { seed; progs } -> [ fuzz_setup_pass cal ~seed progs ]
  in
  let first_setups = setup_pass () in
  let raw = ref [] in
  let t0 = now_ns () in
  repeat cal ~seconds ~min_ops (fun i ->
      let start = now_ns () in
      match measured_op c ~pin_ok ref_ workload i with
      | Some op -> raw := (start, op) :: !raw
      | None -> ());
  calibrate ~force:true cal;
  let elapsed = float_of_int (now_ns () - t0) /. 1e9 in
  let fuzz_setups = first_setups @ setup_pass () in
  let n = List.length !raw in
  let summarize ~scaled =
    let scale ~start ~stop = if scaled then op_scale cal ~start ~stop else 1. in
    let ops =
      List.rev_map
        (fun (start, (op_ns, setup_ns, steps, words)) ->
          let s = scale ~start ~stop:(start + op_ns) in
          (float_of_int op_ns *. s, float_of_int setup_ns *. s, steps, words))
        !raw
    in
    let steps = List.fold_left (fun a (_, _, s, _) -> a + s) 0 ops in
    let words = List.fold_left (fun a (_, _, _, w) -> a +. w) 0. ops in
    let op_s = List.fold_left (fun a (o, _, _, _) -> a +. (o /. 1e9)) 0. ops in
    let op_ms = List.map (fun (o, _, _, _) -> o /. 1e6) ops in
    let setups =
      match workload with
      | Run _ -> List.map (fun (_, s, _, _) -> s) ops
      | Fuzz _ ->
        List.concat_map
          (fun (xs, s) -> if scaled then List.map (fun x -> x *. s) xs else xs)
          fuzz_setups
    in
    let per x d = if d = 0 then 0. else x /. float_of_int d in
    [ ("steps_per_s", float_of_int steps /. op_s, "1/s");
      ("ops_per_s", float_of_int n /. op_s, "1/s");
      ("op_ms.p50", median op_ms, "ms");
      ("op_ms.p90", quantile 0.9 op_ms, "ms");
      ("setup_s", median setups /. 1e9, "s");
      ("words_per_step", per words steps, "words");
      ("peak_heap_mb", peak_heap, "MB");
      ("sim_overhead_pct", sim_overhead_pct ref_, "%") ]
  in
  let n_setups =
    match workload with
    | Run _ -> n
    | Fuzz _ -> List.fold_left (fun a (xs, _) -> a + List.length xs) 0 fuzz_setups
  in
  ( summarize ~scaled:true,
    summarize ~scaled:false,
    Printf.sprintf "ops: %d in %.2f s (op_ms over %d samples; setup_s over %d)" n elapsed n
      n_setups )

(* {2 Traced run} *)

let traced_run c cal ~pin_ok ~seconds ~min_ops ~quota ref_ workload =
  let its = items workload in
  let nits = Array.length its in
  (* Pairs of one plain and one hook-traced run of the same machine,
     alternating which goes first. *)
  let plain = ref [] and traced = ref [] and self = ref [] and share = ref [] in
  let calls = Array.make (Array.length hook_names) 0 in
  let hook_ms = Array.make (Array.length hook_names) [] in
  let picks = ref 0 and traced_ops = ref 0 in
  let promoted = ref 0. and majors = ref 0 and plain_steps = ref 0 in
  let fuzz_rec = ref [] and fuzz_harness = ref [] in
  let run_plain k =
    match run_item ~detector:(Runner.Kard its.(k).config) its.(k) with
    | t ->
      check c (pin_ok && invariants t.result = invariants ref_.kard.(k));
      plain := ms_of_ns t.op_ns :: !plain;
      promoted := !promoted +. t.promoted_words;
      majors := !majors + t.major_collections;
      plain_steps := !plain_steps + t.result.Runner.report.Machine.steps
    | exception _ -> check c false
  in
  let run_traced k =
    let tr = tracer () in
    match run_item ~wrap:(wrap_hooks tr) ~detector:(Runner.Kard its.(k).config) its.(k) with
    | t ->
      (* Tracing must charge zero cycles: any difference from the
         untraced reference fails the operation. *)
      check c (pin_ok && invariants t.result = invariants ref_.kard.(k));
      let hns = hook_ns tr in
      traced := ms_of_ns t.op_ns :: !traced;
      self := ms_of_ns (t.op_ns - hns) :: !self;
      share := (float_of_int hns /. float_of_int (max 1 t.op_ns)) :: !share;
      Array.iteri
        (fun i n ->
          calls.(i) <- calls.(i) + n;
          hook_ms.(i) <- ms_of_ns tr.ns.(i) :: hook_ms.(i))
        tr.calls;
      picks := !picks + tr.picks;
      incr traced_ops
    | exception _ -> check c false
  in
  (* Half the run for the pairs, half for the ladder. *)
  let seconds = seconds /. 2. in
  repeat cal ~seconds ~min_ops (fun i ->
      let k = i mod nits in
      if i land 1 = 0 then (run_plain k; run_traced k) else (run_traced k; run_plain k);
      match workload with
      | Run _ -> ()
      | Fuzz { seed; progs } -> (
        match run_fuzz_prog ~seed progs.(k) with
        | o, rec_ns, harness_ns ->
          check c (pin_ok && (not o.Harness.unexpected) && outcome_key o = ref_.verdicts.(k));
          fuzz_rec := ms_of_ns rec_ns :: !fuzz_rec;
          fuzz_harness := ms_of_ns harness_ns :: !fuzz_harness
        | exception _ -> check c false));
  (* The ladder: every rung over the workload's machines, rounds
     interleaved and rotated so host drift spreads over all rungs. *)
  let rungs = Array.of_list ladder_rungs in
  let nr = Array.length rungs in
  let rung_index name =
    let rec go i = match rungs.(i) with n, _, _ when n = name -> i | _ -> go (i + 1) in
    go 0
  in
  let ns_per_step = Array.make nr [] and words_per_step = Array.make nr [] in
  let replay_ns = ref [] and log_bytes = ref 0 and log_steps = ref 0 in
  let rung_run (_, detector, mode) =
    let ns = ref 0 and words = ref 0. and steps = ref 0 and cycles = ref 0 in
    Array.iter
      (fun it ->
        let recorder = Recorder.create () in
        let wrap = match mode with `Plain -> None | `Record | `Record_trace -> Some (Recorder.wrap recorder) in
        let trace = match mode with `Record_trace -> Some (Kard_obs.Trace.create ()) | _ -> None in
        let t = run_item ?wrap ?trace ~detector it in
        let rep = t.result.Runner.report in
        ns := !ns + t.op_ns;
        words := !words +. t.minor_words;
        steps := !steps + rep.Machine.steps;
        cycles := !cycles + rep.Machine.cycles;
        if mode = `Record then begin
          let header =
            Record.header ~detector ~target:it.name ~threads:it.threads ~scale:1.0
              ~seed:it.mseed ~shards:1
          in
          let bytes = Log.encode (Recorder.log recorder ~header) in
          let log = Log.decode bytes in
          log_bytes := !log_bytes + String.length bytes;
          log_steps := !log_steps + rep.Machine.steps;
          let replayer = Replayer.create ~mode:Replayer.Strict log in
          let r =
            run_item ~schedule:(Replayer.schedule replayer) ~wrap:(Replayer.wrap replayer)
              ~detector it
          in
          check c (Replayer.check replayer = Ok () && r.result.Runner.report = rep);
          replay_ns := (float_of_int r.op_ns /. float_of_int (max 1 rep.Machine.steps)) :: !replay_ns
        end)
      its;
    (!ns, !words, !steps, !cycles)
  in
  let round = ref 0 in
  repeat cal ~seconds ~min_ops:3 (fun _ ->
      let cycles = Array.make nr 0 in
      for j = 0 to nr - 1 do
        let i = (j + !round) mod nr in
        match rung_run rungs.(i) with
        | ns, words, steps, cyc ->
          check c true;
          cycles.(i) <- cyc;
          ns_per_step.(i) <- (float_of_int ns /. float_of_int (max 1 steps)) :: ns_per_step.(i);
          words_per_step.(i) <- (words /. float_of_int (max 1 steps)) :: words_per_step.(i)
        | exception _ -> check c false
      done;
      (* Recording and the trace sink are free in simulated cycles. *)
      let base = cycles.(rung_index "sampling") in
      check c (cycles.(rung_index "recorder") = base && cycles.(rung_index "trace") = base);
      incr round);
  let rung name = median ns_per_step.(rung_index name) in
  let bech = run_bechamel ~quota in
  let bech name = try List.assoc name bech with Not_found -> nan in
  (* Simulated per-layer counts, per op, from the references. *)
  let per_op f = float_of_int (Array.fold_left (fun a r -> a + f r) 0 ref_.kard) /. float_of_int nits in
  let hw f = per_op (fun r -> f r.Runner.report.Machine.hw_stats) in
  let vk f = per_op (fun r -> match r.Runner.kard_stats with Some s -> f s | None -> 0) in
  let traced_n = float_of_int (max 1 !traced_ops) in
  let plain_n = float_of_int (max 1 (List.length !plain)) in
  let open Kard_mpk.Mpk_hw in
  let metrics =
    [ ("sched.picks", float_of_int !picks /. traced_n);
      ("sched.self_ms", median !self);
      ("sched.ns_per_step", rung "baseline");
      ("sched.contended_entries", per_op (fun r -> r.Runner.report.Machine.contended_entries)) ]
    @ List.concat
        (Array.to_list
           (Array.mapi
              (fun i h ->
                [ ("core." ^ h ^ ".calls", float_of_int calls.(i) /. traced_n);
                  ("core." ^ h ^ ".ms", median hook_ms.(i)) ])
              hook_names))
    @ [ ("core.share", median !share);
        ("core.ns_per_step_delta", rung "kard" -. rung "alloc");
        ("core.algorithm_step_ns", bech "core.algorithm_step_ns");
        ("vkey.hits", vk (fun s -> s.Detector.vkey_hits));
        ("vkey.misses", vk (fun s -> s.Detector.vkey_misses));
        ("vkey.evictions", vk (fun s -> s.Detector.vkey_evictions));
        ("vkey.loads", vk (fun s -> s.Detector.vkey_loads));
        ("vkey.stalls", vk (fun s -> s.Detector.vkey_stalls));
        ("vkey.retag_pages", vk (fun s -> s.Detector.vkey_retag_pages));
        ("vkey.ns_per_step_delta", rung "vkeys" -. rung "kard");
        ("mpk.wrpkru", hw (fun s -> s.wrpkru_calls));
        ("mpk.pkey_mprotect", hw (fun s -> s.pkey_mprotect_calls));
        ("mpk.pages_retagged", hw (fun s -> s.pages_retagged));
        ("mpk.faults", hw (fun s -> s.faults));
        ("mpk.dtlb_misses", hw (fun s -> s.dtlb_misses));
        ("mpk.check_access_ns", bech "mpk.check_access_ns");
        ("mpk.tlb_access_ns", bech "mpk.tlb_access_ns");
        ("mpk.pkru_set_ns", bech "mpk.pkru_set_ns");
        ("alloc.ns_per_step_delta", rung "alloc" -. rung "baseline");
        ("alloc.unique_alloc_ns", bech "alloc.unique_alloc_ns");
        ("alloc.objects",
         per_op (fun r -> r.Runner.report.Machine.alloc_stats.Kard_alloc.Alloc_iface.allocations));
        ("alloc.pages", per_op (fun r -> r.Runner.report.Machine.data_rss_bytes / 4096));
        ("sampling.ns_per_step_delta", rung "sampling" -. rung "vkeys");
        ("replay.record_ns_per_step_delta", rung "recorder" -. rung "sampling");
        ("replay.bytes_per_step", float_of_int !log_bytes /. float_of_int (max 1 !log_steps));
        ("replay.replay_ns_per_step", median !replay_ns);
        ("obs.trace_ns_per_step_delta", rung "trace" -. rung "recorder");
        ("fuzz.reconstruct_ms", median !fuzz_rec);
        ("fuzz.harness_ms", median !fuzz_harness);
        ("fuzz.divergent", float_of_int ref_.divergent);
        ("fuzz.unexpected", float_of_int ref_.unexpected);
        ("gc.promoted_words_per_step", !promoted /. float_of_int (max 1 !plain_steps));
        ("gc.major_collections", float_of_int !majors /. plain_n);
        ("trace_overhead_pct", (median !traced /. median !plain -. 1.) *. 100.) ]
    @ List.concat
        (Array.to_list
           (Array.mapi
              (fun i (r, _, _) ->
                [ ("ladder." ^ r ^ ".ns_per_step", median ns_per_step.(i));
                  ("ladder." ^ r ^ ".words_per_step", median words_per_step.(i)) ])
              rungs))
  in
  let raw = List.map (fun (name, unit) -> (name, List.assoc name metrics, unit)) per_layer in
  ( calibrated cal raw,
    raw,
    Printf.sprintf "traced: %d plain/traced pairs, %d ladder rounds" !traced_ops !round )

let run ~(pins : pins) ?(tiny = false) ?(quota = 0.25) ~workload:workload_name ~seed ~seconds ~trace () =
  let workload = make_workload ~tiny workload_name seed in
  let cal = calibration () in
  for _ = 1 to 3 do calibrate ~force:true cal done;
  (* Start the reference pass on a finished major cycle, so the heap's
     high-water mark does not depend on where the cycle stood. *)
  Gc.full_major ();
  let ref_ = reference workload in
  (* The heap high-water mark of one reference pass: a fixed amount of
     work, so it does not grow with how many operations fit the run. *)
  let peak_heap = peak_heap_mb () in
  let pinned_seed = input_seed seed in
  let pin_note, pin_ok =
    match Hashtbl.find_opt pins (workload_name, pinned_seed) with
    | None -> (Printf.sprintf "pin: MISSING for %s seed %d" workload_name pinned_seed, false)
    | Some pin when pin = ref_.pin -> ("pin: ok", true)
    | Some pin ->
      ( Printf.sprintf "pin: MISMATCH\n  pinned   %s\n  observed %s"
          (pin_line workload_name pinned_seed pin)
          (pin_line workload_name pinned_seed ref_.pin),
        false )
  in
  let c = { attempted = 0; failed = 0 } in
  Gc.compact ();
  let min_ops = if tiny then 2 else 5 in
  let metrics, raw_metrics, note =
    if trace then traced_run c cal ~pin_ok ~seconds ~min_ops ~quota ref_ workload
    else end_to_end_run c cal ~pin_ok ~seconds ~min_ops ~peak_heap ref_ workload
  in
  { correct = c.failed = 0 && ref_.unexpected = 0; attempted = c.attempted; failed = c.failed;
    metrics; raw_metrics;
    notes =
      [ Printf.sprintf "workload: %s  seed: %d (input seed %d)  trace: %b" workload_name seed
          pinned_seed trace;
        Printf.sprintf "simulated: steps %d  %s" (total_steps ref_)
          (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) ref_.pin));
        pin_note; note;
        Printf.sprintf
          "calibration: kernel median %.3f ms over %d samples (host times are scaled to %.1f ms)"
          (median (List.map snd cal.samples)) (List.length cal.samples) kernel_ref_ms;
        Printf.sprintf "fail_ratio: %.6f (%d of %d)"
          (float_of_int c.failed /. float_of_int (max 1 c.attempted))
          c.failed c.attempted ] }

let pin_for ?(tiny = false) workload_name seed =
  (reference (make_workload ~tiny workload_name seed)).pin

(* {1 Output} *)

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "null"

let to_json (r : result) =
  let metric (name, value, unit) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number value) unit
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", " (List.map metric r.metrics))
