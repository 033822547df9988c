(* kard — command-line driver for the Kard reproduction.

   Subcommands:
     list                      catalog of workloads and race scenarios
     run <workload>            run one workload under one detector
     scenario <name>           run one controlled race scenario
     trace <workload>          run with tracing; export a Chrome/Perfetto trace
     record <target>           run with the nondeterminism recorder on; write a replay log
     replay <file>             re-execute a recorded log, verifying fidelity against the tape
     serve-sweep               open-loop serving latency/goodput sweep (-o writes its JSON)
     repro <experiment>        run one experiment of the evaluation (--out writes the
                               keys/sampling sweep's JSON)
     fuzz                      differential fuzzing campaign over random programs
*)

module Machine = Kard_sched.Machine
module Spec = Kard_workloads.Spec
module Registry = Kard_workloads.Registry
module Race_suite = Kard_workloads.Race_suite
module Runner = Kard_harness.Runner
module Experiments = Kard_harness.Experiments
module Defaults = Kard_harness.Defaults
module Job = Kard_harness.Job
module Pool = Kard_harness.Pool
module Record = Kard_harness.Record
module Log = Kard_replay.Log
module Campaign = Kard_fuzz.Campaign

open Cmdliner

let detector_conv =
  let parse = function
    | "baseline" -> Ok Runner.Baseline
    | "alloc" -> Ok Runner.Alloc
    | "kard" -> Ok (Runner.Kard (Defaults.kard_config ()))
    | "tsan" -> Ok Runner.Tsan
    | "lockset" -> Ok Runner.Lockset
    | s -> Error (`Msg (Printf.sprintf "unknown detector %S" s))
  in
  let print fmt d = Format.pp_print_string fmt (Runner.detector_name d) in
  Arg.conv (parse, print)

let detector_arg =
  Arg.(value & opt detector_conv (Runner.Kard (Defaults.kard_config ()))
       & info [ "d"; "detector" ] ~docv:"DETECTOR"
           ~doc:"Detector: baseline, alloc, kard, tsan or lockset.")

(* Range-checked converters: an out-of-range value is a usage error
   (exit 124 with the message), never an exception from deep inside a
   run.  Config fields take their range from [Config.validate]. *)
let checked conv check =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v -> (match check v with Ok () -> Ok v | Error msg -> Error (`Msg msg))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let config_field conv set =
  checked conv (fun v -> Kard_core.Config.validate (set Kard_core.Config.default v))

let vkeys_conv = config_field Arg.int (fun c n -> { c with Kard_core.Config.vkeys = n })
let sampling_conv = config_field Arg.float (fun c r -> { c with Kard_core.Config.sampling = r })

let vkeys_arg =
  Arg.(value & opt (some vkeys_conv) None
       & info [ "vkeys" ] ~docv:"N"
           ~doc:
             "Virtual-key pool size for the kard detector (default: $(b,\\$KARD_VKEYS) or 0).  \
              0 is identity mode — the detector works directly on the physical data pkeys, \
              byte-identical to the pre-vkey layer; a positive pool virtualizes key identity \
              over the hardware registers with clock eviction (DESIGN.md section 11).")

(* --vkeys only parameterizes the kard detector; other detectors have
   no key space and ignore it. *)
let with_vkeys vkeys detector =
  match (vkeys, detector) with
  | Some n, Runner.Kard c -> Runner.Kard { c with Kard_core.Config.vkeys = n }
  | _, d -> d

let sampling_arg =
  Arg.(value & opt (some sampling_conv) None
       & info [ "sampling" ] ~docv:"RATE"
           ~doc:
             "Sampling rate in (0,1] for the kard detector (default: $(b,\\$KARD_SAMPLING) or \
              1.0).  1.0 is full Kard — byte-identical to the unsampled detector; below it a \
              seeded per-object/per-section policy decides what gets pkey protection each \
              epoch, and unsampled accesses take a near-zero fast path.  Reports under a rate \
              are always a subset of full Kard's (DESIGN.md section 12).")

(* Like --vkeys: only the kard detector has a sampling policy. *)
let with_sampling sampling detector =
  match (sampling, detector) with
  | Some r, Runner.Kard c -> Runner.Kard { c with Kard_core.Config.sampling = r }
  | _, d -> d

let positive_int what =
  checked Arg.int (fun n ->
      if n >= 1 then Ok () else Error (Printf.sprintf "%s must be >= 1 (got %d)" what n))

(* A scenario normally runs under its own configuration; --vkeys and
   --sampling override just those knobs on top of it. *)
let scenario_override vkeys sampling scenario =
  if vkeys = None && sampling = None then None
  else
    let c = scenario.Race_suite.config in
    let c = match vkeys with Some n -> { c with Kard_core.Config.vkeys = n } | None -> c in
    Some (match sampling with Some r -> { c with Kard_core.Config.sampling = r } | None -> c)

let threads_conv = positive_int "thread count"

let threads_arg =
  Arg.(value & opt (some threads_conv) None
       & info [ "t"; "threads" ] ~docv:"N" ~doc:"Thread count (>= 1).")

let scale_conv =
  checked Arg.float (fun f ->
      if f > 0.0 && f <= 1.0 then Ok ()
      else Error (Printf.sprintf "scale must be in (0, 1] (got %g)" f))

let scale_arg =
  Arg.(value & opt scale_conv Defaults.scale
       & info [ "scale" ] ~docv:"F" ~doc:"Workload scale factor (0,1].")

(* Names resolve in the converter, so an unknown one is a usage error
   like any other bad flag value. *)
let named_conv what find name_of =
  let parse name =
    match find name with
    | v -> Ok v
    | exception Not_found -> Error (`Msg (Printf.sprintf "unknown %s %S; try `kard list`" what name))
  in
  Arg.conv (parse, fun fmt v -> Format.pp_print_string fmt (name_of v))

let workload_arg =
  Arg.(required
       & pos 0 (some (named_conv "workload" Registry.find (fun s -> s.Spec.name))) None
       & info [] ~docv:"WORKLOAD" ~doc:"Workload name.")

let scenario_arg =
  Arg.(required
       & pos 0 (some (named_conv "scenario" Race_suite.find (fun s -> s.Race_suite.name))) None
       & info [] ~docv:"SCENARIO" ~doc:"Scenario name.")

let seed_arg =
  Arg.(value & opt int Defaults.seed & info [ "seed" ] ~docv:"SEED" ~doc:"Scheduler seed.")

let jobs_arg =
  Arg.(value & opt (some int) None
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:
             "Worker domains for independent runs (default: $(b,\\$KARD_JOBS) or the host core \
              count).  Results are merged in submission order, so any value produces identical \
              output.")

(* list *)

let list_cmd =
  let action () =
    Printf.printf "Workloads (Table 3):\n";
    List.iter
      (fun spec ->
        Printf.printf "  %-16s %-10s %s\n" spec.Spec.name
          (Spec.category_name spec.Spec.category)
          spec.Spec.description)
      Registry.all;
    Printf.printf "\nServing workloads (open-loop; see `kard serve-sweep`):\n";
    List.iter
      (fun spec ->
        Printf.printf "  %-28s %s\n" spec.Spec.name spec.Spec.description)
      Registry.serving;
    Printf.printf "\nContention stress (worst-case waiter dilation):\n";
    List.iter
      (fun spec ->
        Printf.printf "  %-28s %s\n" spec.Spec.name spec.Spec.description)
      Registry.contention;
    Printf.printf "\nKey-pressure workloads (object-scale precision; see `kard repro keys`):\n";
    List.iter
      (fun spec ->
        Printf.printf "  %-28s %s\n" spec.Spec.name spec.Spec.description)
      Registry.key_pressure;
    Printf.printf "\nRace scenarios (Tables 1/4, Figures 1/4):\n";
    List.iter
      (fun s -> Printf.printf "  %-28s %s\n" s.Race_suite.name s.Race_suite.description)
      Race_suite.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List workloads and race scenarios")
    Term.(const action $ const ())

(* run *)

let print_result (result : Runner.result) =
  let r = result.Runner.report in
  Printf.printf "workload:  %s\ndetector:  %s (threads=%d scale=%g seed=%d)\n" result.spec_name
    result.detector_name result.threads result.scale result.seed;
  Printf.printf "cycles:    %s (io %s, wall %s)\n" (Kard_harness.Text_table.fmt_int r.Machine.cycles)
    (Kard_harness.Text_table.fmt_int r.Machine.io_cycles)
    (Kard_harness.Text_table.fmt_int r.Machine.wall_cycles);
  Printf.printf "steps:     %s   reads/writes: %s/%s\n"
    (Kard_harness.Text_table.fmt_int r.Machine.steps)
    (Kard_harness.Text_table.fmt_int r.Machine.reads)
    (Kard_harness.Text_table.fmt_int r.Machine.writes);
  Printf.printf "sections:  %d sites, %s entries (%s contended), max concurrent %d\n"
    r.Machine.unique_sections
    (Kard_harness.Text_table.fmt_int r.Machine.cs_entries)
    (Kard_harness.Text_table.fmt_int r.Machine.contended_entries)
    r.Machine.max_concurrent_sections;
  Printf.printf "faults:    %d   rss: %s KiB   dTLB miss rate: %.5f\n" r.Machine.faults
    (Kard_harness.Text_table.fmt_kb r.Machine.rss_bytes)
    r.Machine.dtlb_miss_rate;
  let hw = r.Machine.hw_stats in
  Printf.printf "hw:        wrpkru %s, rdpkru %s, pkey_mprotect %s (%s pages), dTLB %s/%s\n"
    (Kard_harness.Text_table.fmt_int hw.Kard_mpk.Mpk_hw.wrpkru_calls)
    (Kard_harness.Text_table.fmt_int hw.Kard_mpk.Mpk_hw.rdpkru_calls)
    (Kard_harness.Text_table.fmt_int hw.Kard_mpk.Mpk_hw.pkey_mprotect_calls)
    (Kard_harness.Text_table.fmt_int hw.Kard_mpk.Mpk_hw.pages_retagged)
    (Kard_harness.Text_table.fmt_int hw.Kard_mpk.Mpk_hw.dtlb_misses)
    (Kard_harness.Text_table.fmt_int hw.Kard_mpk.Mpk_hw.dtlb_accesses);
  (match result.Runner.kard_stats with
  | Some s ->
    Printf.printf
      "kard:      ident r/w %d/%d, proactive %d, reactive %d, migrations %d, demotions %d\n"
      s.Kard_core.Detector.identifications_read s.Kard_core.Detector.identifications_write
      s.Kard_core.Detector.proactive_acquisitions s.Kard_core.Detector.reactive_acquisitions
      s.Kard_core.Detector.migrations s.Kard_core.Detector.demotions;
    Printf.printf "keys:      fresh %d, reuse %d, recycle %d, share %d\n"
      s.Kard_core.Detector.fresh_events s.Kard_core.Detector.reuse_events
      s.Kard_core.Detector.recycling_events s.Kard_core.Detector.sharing_events;
    Printf.printf "records:   logged %d, redundant %d, pruned spurious %d, surviving %d (ILU %d)\n"
      s.Kard_core.Detector.records_logged s.Kard_core.Detector.records_redundant
      s.Kard_core.Detector.records_pruned_spurious
      (List.length result.Runner.kard_races)
      (List.length result.Runner.kard_ilu_races);
    List.iter
      (fun race -> Format.printf "  %a@." Kard_core.Race_record.pp race)
      result.Runner.kard_races
  | None -> ());
  if result.Runner.tsan_races <> [] then
    Printf.printf "tsan:      %d races (%d ILU)\n"
      (List.length result.Runner.tsan_races)
      (List.length result.Runner.tsan_ilu_races);
  if result.Runner.lockset_warnings <> [] then
    Printf.printf "lockset:   %d warnings\n" (List.length result.Runner.lockset_warnings)

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit a machine-readable JSON report.")

let run_cmd =
  let seeds_arg =
    Arg.(value & opt (some (list int)) None
         & info [ "seeds" ] ~docv:"S,S,..."
             ~doc:"Run one job per seed (reported in seed-list order) instead of --seed alone.")
  in
  let action spec detector vkeys sampling threads scale seed seeds jobs json =
    let detector = with_sampling sampling (with_vkeys vkeys detector) in
    let seeds = Option.value ~default:[ seed ] seeds in
    let results =
      Pool.run_jobs ?jobs
        (List.map (fun seed -> Job.spec ?threads ~scale ~seed detector spec) seeds)
    in
    if json then
      List.iter
        (fun result ->
          print_endline
            (Kard_harness.Json_report.pretty (Kard_harness.Json_report.of_result result)))
        results
    else
      List.iteri
        (fun i result ->
          if i > 0 then print_newline ();
          print_result result)
        results
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one workload under one detector")
    Term.(const action $ workload_arg $ detector_arg $ vkeys_arg $ sampling_arg $ threads_arg
          $ scale_arg $ seed_arg $ seeds_arg $ jobs_arg $ json_arg)

let scenario_cmd =
  let action scenario detector vkeys sampling seed =
    let override_config = scenario_override vkeys sampling scenario in
    print_result (Runner.run_scenario ~seed ?override_config ~detector scenario)
  in
  Cmd.v (Cmd.info "scenario" ~doc:"Run one controlled race scenario")
    Term.(const action $ scenario_arg $ detector_arg $ vkeys_arg $ sampling_arg $ seed_arg)

(* trace: run a workload with the observability sink on and export a
   Perfetto-loadable Chrome trace plus the metrics registry. *)

let trace_cmd =
  let out_arg =
    Arg.(value & opt string "trace.json"
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Chrome trace output path.")
  in
  let steps_arg =
    Arg.(value & flag
         & info [ "steps" ]
             ~doc:"Also record every read/write/compute step (fills the ring fast).")
  in
  let capacity_arg =
    Arg.(value & opt (positive_int "capacity") 65536
         & info [ "capacity" ] ~docv:"N"
             ~doc:"Event ring capacity; oldest events are dropped beyond it.")
  in
  let action spec detector vkeys sampling threads scale seed out steps capacity =
    let detector = with_sampling sampling (with_vkeys vkeys detector) in
    let tr = Kard_obs.Trace.create ~capacity ~steps () in
    let result = Runner.run ~trace:tr ?threads ~scale ~seed ~detector spec in
    let oc = open_out out in
    output_string oc (Kard_obs.Chrome_trace.to_json ~t:tr);
    close_out oc;
    let r = result.Runner.report in
    Printf.printf "workload:  %s under %s (threads=%d scale=%g seed=%d)\n" result.Runner.spec_name
      result.Runner.detector_name result.Runner.threads result.Runner.scale result.Runner.seed;
    Printf.printf "cycles:    %s   faults: %d   dTLB miss rate: %.5f\n"
      (Kard_harness.Text_table.fmt_int r.Machine.cycles)
      r.Machine.faults r.Machine.dtlb_miss_rate;
    Printf.printf "trace:     %s (load in ui.perfetto.dev or about:tracing)\n\n" out;
    Kard_harness.Obs_report.print_trace_summary tr;
    print_newline ();
    Kard_harness.Obs_report.print_metrics (Kard_obs.Trace.metrics tr)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run a workload with event tracing on; write a Perfetto-loadable Chrome trace")
    Term.(const action $ workload_arg $ detector_arg $ vkeys_arg $ sampling_arg $ threads_arg
          $ scale_arg $ seed_arg $ out_arg $ steps_arg $ capacity_arg)

(* hunt: sweep seeds until a schedule manifests a race, then replay
   that exact interleaving to confirm — the race-debugging loop. *)

let hunt_cmd =
  let tries_arg =
    Arg.(value & opt (positive_int "tries") 50
         & info [ "tries" ] ~docv:"N" ~doc:"Seeds to sweep (default 50).")
  in
  let action scenario tries jobs =
    let detector = Runner.Kard scenario.Race_suite.config in
    (* Sweep one pool-width batch of seeds at a time, scanning each
       batch in seed order: the reported hit is always the smallest
       racing seed, exactly as the old serial loop found it. *)
    let width = Pool.resolve_jobs jobs in
    let rec sweep = function
      | [] -> None
      | batch :: rest ->
        let results =
          Pool.run_jobs ?jobs
            (List.map (fun seed -> Job.scenario ~seed detector scenario) batch)
        in
        let hit =
          List.find_opt
            (fun (_, r) -> r.Runner.kard_ilu_races <> [])
            (List.combine batch results)
        in
        (match hit with Some _ -> hit | None -> sweep rest)
    in
    (match sweep (Pool.chunks width (List.init tries (fun i -> i + 1))) with
    | None -> Printf.printf "no race manifested in %d schedules\n" tries
    | Some (seed, found) ->
      Printf.printf "race manifested at seed %d (%d/%d schedules swept):\n" seed seed tries;
      List.iter
        (fun race -> Format.printf "  %a@." Kard_core.Race_record.pp race)
        found.Runner.kard_ilu_races;
      (* Record the racing run's nondeterminism, then replay the log
         strictly: the interleaving must reproduce exactly. *)
      let _, log = Record.record ~seed ~detector (Record.Scenario scenario) in
      match Record.replay log with
      | Ok (replayed, Ok ()) ->
        let n = List.length replayed.Runner.kard_ilu_races in
        Printf.printf "replayed the %d-step schedule: %d race(s) reproduced %s\n"
          (Log.pick_count log) n
          (if n = List.length found.Runner.kard_ilu_races then "(exact)" else "(differs!)")
      | Ok (_, Error msg) | Error msg ->
        Printf.printf "replay of the %d-step schedule diverged:\n%s\n" (Log.pick_count log) msg)
  in
  Cmd.v
    (Cmd.info "hunt" ~doc:"Sweep schedules for a race, then replay the found interleaving")
    Term.(const action $ scenario_arg $ tries_arg $ jobs_arg)

(* record / replay: the nondeterminism-log layer (DESIGN.md §13).
   With --json both commands print only the run's result JSON on
   stdout — status and fidelity lines go to stderr — so CI can diff a
   recorded run against its replay byte-for-byte.  Targets are
   workloads, scenario:NAME, or fuzz:SEED:INDEX (a campaign program,
   reconstructed from the pair). *)

let fuzz_build (r : Campaign.reconstructed) machine =
  let (_ : Kard_fuzz.Prog.run_ctx) =
    Kard_fuzz.Prog.spawn_all r.Campaign.rp_prog ~machine ~on_event:(fun _ -> ())
  in
  ()

let print_or_json ~json result =
  if json then
    print_endline (Kard_harness.Json_report.pretty (Kard_harness.Json_report.of_result result))
  else print_result result

let sanitize_target name =
  String.map (function ':' | '/' -> '-' | c -> c) name

(* A target resolves in its converter, like workload names: an unknown
   one is a usage error.  The original text is kept, since the log
   header and the default output name are derived from it. *)
let target_conv =
  let parse target =
    match Campaign.of_target target with
    | Some (cseed, i) -> Ok (target, `Fuzz (cseed, i))
    | None -> (
      match Record.find_subject target with
      | Ok subject -> Ok (target, `Subject subject)
      | Error msg -> Error (`Msg msg))
  in
  Arg.conv (parse, fun fmt (target, _) -> Format.pp_print_string fmt target)

let record_cmd =
  let target_arg =
    Arg.(required & pos 0 (some target_conv) None
         & info [] ~docv:"TARGET"
             ~doc:
               "What to record: a workload name, $(b,scenario:)NAME, or \
                $(b,fuzz:)SEED$(b,:)INDEX (program INDEX of fuzz campaign SEED, reconstructed \
                from the pair — no program file needed).")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "out"; "output" ] ~docv:"FILE"
             ~doc:"Replay-log output path (default: $(docv) derived from the target name).")
  in
  let action (target, resolved) detector vkeys sampling threads scale seed out json =
    let out = Option.value ~default:(sanitize_target target ^ ".rlog") out in
    let result, log =
      match resolved with
      | `Fuzz (cseed, i) ->
        (* A campaign program records under its campaign entry's
           detector configuration and machine seed by default;
           --sampling/--vkeys (e.g. record cheap, replay full) and
           --seed still apply on top. *)
        let r = Campaign.reconstruct ~seed:cseed i in
        let detector =
          with_sampling sampling (with_vkeys vkeys (Runner.Kard r.Campaign.rp_config))
        in
        let seed =
          if seed = Defaults.seed then r.Campaign.rp_machine_seed else seed
        in
        Record.record_build
          ~threads:(r.Campaign.rp_prog.Kard_fuzz.Prog.workers + 1)
          ~scale:1.0 ~seed ~detector ~target (fuzz_build r)
          (Printf.sprintf "fuzz-%d-%d" cseed i)
      | `Subject subject ->
        let detector = with_sampling sampling (with_vkeys vkeys detector) in
        let override_config =
          match subject with
          | Record.Scenario sc -> scenario_override vkeys sampling sc
          | Record.Spec _ -> None
        in
        Record.record ?threads ~scale ~seed ?override_config ~detector subject
    in
    Log.to_file out log;
    Printf.eprintf "recorded %s: %d picks, %d grants, %d bytes -> %s\n"
      log.Log.header.Log.target (Log.pick_count log) (Log.grant_count log)
      (String.length (Log.encode log)) out;
    print_or_json ~json result
  in
  Cmd.v
    (Cmd.info "record"
       ~doc:
         "Run a target with the nondeterminism recorder on and write a compact replay log \
          (schedule picks, lock-grant order, anchors; recording costs zero simulated cycles)")
    Term.(const action $ target_arg $ detector_arg $ vkeys_arg $ sampling_arg $ threads_arg
          $ scale_arg $ seed_arg $ out_arg $ json_arg)

let replay_cmd =
  let file_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE" ~doc:"Replay log written by $(b,kard record).")
  in
  let detector_opt_arg =
    Arg.(value & opt (some detector_conv) None
         & info [ "d"; "detector" ] ~docv:"DETECTOR"
             ~doc:
               "Replay under this detector instead of the recorded one (cross-detector replay: \
                record under cheap sampling, re-detect under full kard, tsan or lockset; \
                fidelity checking drops to schedule-only strength).")
  in
  let action file detector vkeys sampling json =
    let fail msg =
      Printf.eprintf "replay: %s\n" msg;
      exit 2
    in
    let log = try Log.of_file file with Log.Error e -> fail (Log.error_to_string e) in
    let h = log.Log.header in
    Printf.eprintf "replaying %s: %s, %d picks, %d grants\n" file
      (Format.asprintf "%a" Log.pp_header h)
      (Log.pick_count log) (Log.grant_count log);
    (* An explicit -d/--vkeys/--sampling builds an override detector;
       otherwise the header's own detector replays in strict mode. *)
    let detector =
      match (detector, vkeys, sampling) with
      | None, None, None -> None
      | _ ->
        let base =
          match detector with
          | Some d -> d
          | None -> (match Record.detector_of_header h with Ok d -> d | Error msg -> fail msg)
        in
        Some (with_sampling sampling (with_vkeys vkeys base))
    in
    let outcome =
      match Campaign.of_target h.Log.target with
      | Some (cseed, i) ->
        let r = Campaign.reconstruct ~seed:cseed i in
        Record.replay_build ?detector log (fuzz_build r)
          (Printf.sprintf "fuzz-%d-%d" cseed i)
      | None -> Record.replay ?detector log
    in
    match outcome with
    | Error msg -> fail msg
    | Ok (result, fidelity) ->
      print_or_json ~json result;
      (match fidelity with
      | Ok () -> Printf.eprintf "replay fidelity: ok (tape fully consumed)\n"
      | Error msg ->
        Printf.eprintf "replay fidelity: DIVERGED\n%s\n" msg;
        exit 1)
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-execute a recorded run from its nondeterminism log, byte-identical to the \
          original, verifying every pick, lock grant and anchor against the tape (exit 1 on \
          divergence)")
    Term.(const action $ file_arg $ detector_opt_arg $ vkeys_arg $ sampling_arg $ json_arg)

(* The one writer of experiment JSON documents (serve-sweep -o,
   repro --out). *)
let write_json out json =
  let oc = open_out out in
  output_string oc (Kard_harness.Json_report.pretty json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" out

(* serve-sweep: the open-loop production-serving benchmark.  Sweeps
   offered load over detectors and reports latency percentiles plus
   goodput under the p99 SLO. *)

let serve_sweep_cmd =
  let module Openloop = Kard_workloads.Openloop in
  let server_conv =
    let parse = function
      | "nginx" -> Ok Openloop.Nginx
      | "memcached" -> Ok Openloop.Memcached
      | s -> Error (`Msg (Printf.sprintf "unknown server %S (nginx or memcached)" s))
    in
    Arg.conv (parse, fun fmt s -> Format.pp_print_string fmt (Openloop.server_name s))
  in
  let server_arg =
    Arg.(value & opt server_conv Openloop.Nginx
         & info [ "server" ] ~docv:"SERVER" ~doc:"Simulated server: nginx or memcached.")
  in
  let arrivals_conv =
    let parse = function
      | "poisson" -> Ok Openloop.Poisson
      | "bursty" -> Ok Openloop.default_bursty
      | s -> Error (`Msg (Printf.sprintf "unknown arrival model %S (poisson or bursty)" s))
    in
    Arg.conv (parse, fun fmt m -> Format.pp_print_string fmt (Openloop.arrival_name m))
  in
  let arrivals_arg =
    Arg.(value & opt arrivals_conv Openloop.Poisson
         & info [ "arrivals" ] ~docv:"MODEL"
             ~doc:
               "Arrival process: poisson (memoryless) or bursty (Markov-modulated, 8x rate \
                bursts).")
  in
  let rate_conv =
    checked Arg.float (fun r ->
        if Float.is_finite r && r > 0.0 then Ok ()
        else Error (Printf.sprintf "rate must be finite and > 0 (got %g)" r))
  in
  let rates_arg =
    Arg.(value & opt (list rate_conv) Experiments.default_serve_rates
         & info [ "rates" ] ~docv:"R,R,..."
             ~doc:"Offered loads to sweep, in requests per million simulated cycles.")
  in
  let slo_arg =
    Arg.(value & opt (positive_int "slo") Defaults.serve_slo
         & info [ "slo" ] ~docv:"CYCLES" ~doc:"Latency SLO: p99 budget in simulated cycles.")
  in
  let serve_scale_arg =
    Arg.(value & opt scale_conv Defaults.serve_scale
         & info [ "scale" ] ~docv:"F" ~doc:"Workload scale factor (0,1].")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "out"; "output" ] ~docv:"FILE"
             ~doc:"Also write the sweep as a JSON document to $(docv).")
  in
  let threads_opt_arg =
    Arg.(value & opt threads_conv Defaults.table_threads
         & info [ "t"; "threads" ] ~docv:"N" ~doc:"Worker thread count of the simulated server.")
  in
  let action server model rates slo threads scale seed jobs sampling out =
    (* --sampling swaps the default kard contestant for a sampled one
       (same "kard" label, so goodput keys stay comparable). *)
    let detectors =
      match sampling with
      | None -> Experiments.serve_detectors
      | Some _ ->
        List.map (fun (name, d) -> (name, with_sampling sampling d)) Experiments.serve_detectors
    in
    let sweep =
      Experiments.serve ?jobs ~server ~model ~detectors ~rates ~threads ~scale ~seed ~slo ()
    in
    Experiments.print_serve sweep;
    Option.iter
      (fun out -> write_json out (Kard_harness.Json_report.of_serve_sweep ~threads ~scale ~seed sweep))
      out
  in
  Cmd.v
    (Cmd.info "serve-sweep"
       ~doc:
         "Open-loop serving benchmark: sweep offered load over detectors, report latency \
          percentiles and goodput under the p99 SLO")
    Term.(const action $ server_arg $ arrivals_arg $ rates_arg $ slo_arg $ threads_opt_arg
          $ serve_scale_arg $ seed_arg $ jobs_arg $ sampling_arg $ out_arg)

(* fuzz: the differential campaign.  Exit code 1 on any unexpected
   divergence so CI can gate on it. *)

let fuzz_cmd =
  let count_arg =
    Arg.(value & opt int 1000
         & info [ "n"; "count" ] ~docv:"N"
             ~doc:"Cumulative number of programs (a resumed corpus runs only the remainder).")
  in
  let corpus_arg =
    Arg.(value & opt (some string) None
         & info [ "corpus" ] ~docv:"DIR"
             ~doc:
               "Corpus directory: campaign state (resumable), per-class exemplar repros, and \
                minimized repros for unexpected divergences.")
  in
  let replay_arg =
    Arg.(value & flag
         & info [ "replay" ]
             ~doc:
               "Run the record/replay gate on every program (default: only the replay-oracle \
                config entries): record the run's nondeterminism log, round-trip the codec, \
                strictly replay, and demand an identical report and race list.  Any difference \
                is the never-expected replay-divergence class.")
  in
  let action count seed corpus jobs sampling replay =
    let replay = if replay then Some true else None in
    let r = Kard_fuzz.Campaign.run ?jobs ?corpus ?sampling ?replay ~count ~seed () in
    Format.printf "%a@." Kard_fuzz.Campaign.report r;
    Printf.printf "(%d programs this invocation%s)\n" r.Kard_fuzz.Campaign.programs
      (match corpus with None -> "" | Some dir -> Printf.sprintf ", corpus %s" dir);
    if r.Kard_fuzz.Campaign.unexpected_indices <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: random programs under the Kard runtime, replayed through pure \
          Algorithm 1, happens-before and Eraser-lockset oracles; every divergence must match \
          the documented taxonomy")
    Term.(const action $ count_arg $ seed_arg $ corpus_arg $ jobs_arg $ sampling_arg $ replay_arg)

(* repro: the one experiment driver.  Every table and figure of the
   paper's evaluation, plus the key-pressure and sampling sweeps, whose
   JSON documents --out writes. *)

let repro_names =
  [ "table1"; "figure1"; "table4"; "figure4"; "scenarios"; "table3"; "table5"; "table6";
    "figure2"; "figure5"; "nginx-sweep"; "memory"; "ablation"; "micro"; "nolock"; "explore";
    "keys"; "sampling"; "all" ]

let repro_all =
  [ "micro"; "figure2"; "scenarios"; "table3"; "table5"; "table6"; "figure5"; "nginx-sweep";
    "memory"; "ablation" ]

let repro_json = [ "keys"; "sampling" ]

(* [scale] is [None] unless --scale was given: the tables default to
   [Defaults.scale], keys to 1.0 (its claim is about object count) and
   sampling to its own key-pressure scale. *)
let repro_one ?jobs ?scale ?out name =
  let table_scale = Option.value scale ~default:Defaults.scale in
  match name with
  | "table1" | "figure1" | "table4" | "figure4" | "scenarios" ->
    Experiments.print_scenarios (Experiments.scenarios ?jobs ())
  | "table3" -> Experiments.print_table3 (Experiments.table3 ?jobs ~scale:table_scale ())
  | "table5" ->
    print_endline "full key budget (13 data keys):";
    Experiments.print_table5 (Experiments.table5 ?jobs ~scale:table_scale ());
    print_endline "\npressure-scaled key budget (4 data keys; see EXPERIMENTS.md):";
    Experiments.print_table5 (Experiments.table5 ?jobs ~data_keys:4 ~scale:table_scale ())
  | "table6" -> Experiments.print_table6 (Experiments.table6 ?jobs ~scale:table_scale ())
  | "figure2" -> Experiments.print_figure2 (Experiments.figure2 ())
  | "figure5" -> Experiments.print_figure5 (Experiments.figure5 ?jobs ~scale:table_scale ())
  | "nginx-sweep" ->
    Experiments.print_nginx_sweep (Experiments.nginx_sweep ?jobs ~scale:table_scale ())
  | "memory" -> Experiments.print_memory (Experiments.memory ?jobs ~scale:table_scale ())
  | "ablation" -> Experiments.print_ablation (Experiments.ablation ?jobs ~scale:table_scale ())
  | "micro" -> Experiments.print_micro ()
  | "nolock" -> Experiments.print_nolock (Experiments.nolock ?jobs ~scale:table_scale ())
  | "explore" -> Experiments.print_explore (Experiments.explore ?jobs ())
  | "keys" ->
    let b = Experiments.keys ?jobs ?scale () in
    Experiments.print_keys_bench b;
    Option.iter (fun out -> write_json out (Kard_harness.Json_report.of_keys_bench b)) out
  | "sampling" ->
    let b = Experiments.sampling ?jobs ?scale () in
    Experiments.print_sampling b;
    Option.iter
      (fun out ->
        write_json out
          (Kard_harness.Json_report.of_sampling_bench ~threads:Defaults.table_threads
             ~scale:Defaults.serve_scale ~seed:Defaults.seed b))
      out
  | exp -> invalid_arg ("repro: no experiment " ^ exp)

let repro_cmd =
  let exp_arg =
    Arg.(required & pos 0 (some (enum (List.map (fun n -> (n, n)) repro_names))) None
         & info [] ~docv:"EXPERIMENT"
             ~doc:("One of: " ^ String.concat ", " repro_names ^ "."))
  in
  let scale_arg =
    Arg.(value & opt (some scale_conv) None
         & info [ "scale" ] ~docv:"F"
             ~doc:
               (Printf.sprintf
                  "Workload scale factor (0,1] (default: %g for the paper tables, 1.0 for keys, \
                   the sweep's own for sampling)." Defaults.scale))
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "out" ] ~docv:"FILE"
             ~doc:
               ("Write the experiment's JSON document to $(docv).  Only "
               ^ String.concat " and " repro_json ^ " have one."))
  in
  let action exp scale jobs out =
    match out with
    | Some _ when not (List.mem exp repro_json) ->
      `Error
        (false, Printf.sprintf "--out: %s has no JSON document (only %s do)" exp
                  (String.concat " and " repro_json))
    | _ ->
      List.iter
        (fun e ->
          Printf.printf "== %s ==\n" e;
          repro_one ?jobs ?scale ?out e;
          print_newline ())
        (if exp = "all" then repro_all else [ exp ]);
      `Ok ()
  in
  Cmd.v (Cmd.info "repro" ~doc:"Run one experiment of the paper's evaluation")
    Term.(ret (const action $ exp_arg $ scale_arg $ jobs_arg $ out_arg))

let () =
  let info = Cmd.info "kard" ~doc:"Kard: MPK-based data race detection (ASPLOS'21), simulated" in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; run_cmd; scenario_cmd; trace_cmd; hunt_cmd; record_cmd; replay_cmd;
            serve_sweep_cmd; repro_cmd; fuzz_cmd ]))
