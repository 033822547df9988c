module Machine = Kard_sched.Machine
module Hooks = Kard_sched.Hooks
module Detector = Kard_core.Detector
module Config = Kard_core.Config
module D = Kard_core.Divergence
module Race_record = Kard_core.Race_record
module Log = Kard_replay.Log
module Recorder = Kard_replay.Recorder
module Replayer = Kard_replay.Replayer

type outcome = {
  verdicts : Classify.obj_verdict list;
  divergent : Classify.obj_verdict list;
  classes : D.cls list;
  unexpected : bool;
  stuck : string option;
}

let allocator = Machine.Unique_page { granule = 32; recycle_virtual_pages = false }

(* The record/replay layer (DESIGN.md §13) is gated by a dual run: the
   program runs once more on an unwrapped Kard machine with the
   recorder composed in, the log is pushed through its wire encoding
   and back — so the codec round-trips on every generated program —
   and a strict replay driven by the decoded tape must reproduce the
   report and race-record list exactly, with every pick, grant and
   anchor matching and the tape fully consumed. *)
let replay_gate ?(target = "fuzz") ~config ~seed prog =
  let run_wrapped ?schedule wrap =
    let cell = ref None in
    let make_detector env = wrap env (Detector.make ~config ~cell env) in
    let machine = Machine.create ~seed ?schedule ~allocator ~make_detector () in
    let (_ : Prog.run_ctx) = Prog.spawn_all prog ~machine ~on_event:(fun _ -> ()) in
    match Machine.run machine with
    | exception Machine.Stuck msg -> Error msg
    | report -> Ok (report, Detector.races (Option.get !cell))
  in
  let recorder = Recorder.create () in
  let recorded = run_wrapped (Recorder.wrap recorder) in
  let header =
    { Log.detector = "kard"; target; threads = prog.Prog.workers + 1; scale = 1.0; seed;
      shards = 1; config = Some config }
  in
  match Log.decode (Log.encode (Recorder.log recorder ~header)) with
  | exception Log.Error _ -> false
  | log -> (
    let replayer = Replayer.create ~mode:Replayer.Strict log in
    let replayed =
      run_wrapped ~schedule:(Replayer.schedule replayer) (Replayer.wrap replayer)
    in
    Replayer.check replayer = Ok ()
    && match (recorded, replayed) with
       | Ok a, Ok b -> a = b
       | Error a, Error b -> String.equal a b
       | Ok _, Error _ | Error _, Ok _ -> false)

let run ?(kard_filter = fun (_ : Race_record.t) -> true)
    ?(provenance_filter = fun (p : Detector.provenance) -> p) ?(config = Config.default)
    ?(shards = 1) ?(replay = false) ?replay_target ~seed prog =
  if shards <> 1 then invalid_arg "Harness.run: shards must be 1";
  let cell = ref None in
  let log = Trace_log.create () in
  let make_detector env =
    Trace_log.wrap log ~meta:env.Hooks.meta (Detector.make ~config ~cell env)
  in
  let machine = Machine.create ~seed ~allocator ~make_detector () in
  let (_ : Prog.run_ctx) =
    Prog.spawn_all prog ~machine ~on_event:(fun ev -> Trace_log.emit log ev)
  in
  match Machine.run machine with
  | exception Machine.Stuck msg ->
    { verdicts = []; divergent = []; classes = [ D.Unexpected ]; unexpected = true;
      stuck = Some msg }
  | (_ : Machine.report) ->
    let detector = Option.get !cell in
    let events = Trace_log.events log in
    let kard =
      Detector.races detector
      |> List.filter kard_filter
      |> List.map (fun (r : Race_record.t) -> r.Race_record.obj_id)
      |> List.sort_uniq compare
    in
    let alg1 = Oracles.alg1 ~section_identity:config.Config.section_identity events in
    let hb = Oracles.hb ~threads:(prog.Prog.workers + 1) events in
    let lockset = Oracles.lockset events in
    let verdicts =
      Classify.classify
        ~sampling:(config.Config.sampling < 1.0)
        ~provenance:(fun ~obj_id -> provenance_filter (Detector.provenance detector ~obj_id))
        ~kard ~alg1 ~hb ~lockset ()
    in
    let divergent = List.filter (fun v -> v.Classify.classes <> []) verdicts in
    let replay_ok = (not replay) || replay_gate ?target:replay_target ~config ~seed prog in
    let classes =
      List.sort_uniq D.compare
        ((if replay_ok then [] else [ D.Replay_divergence ])
        @ List.concat_map (fun v -> v.Classify.classes) divergent)
    in
    let unexpected = List.exists (fun c -> not (D.expected c)) classes in
    { verdicts; divergent; classes; unexpected; stuck = None }

let pp_outcome fmt o =
  match o.stuck with
  | Some msg -> Format.fprintf fmt "stuck: %s" msg
  | None ->
    if o.divergent = [] then Format.fprintf fmt "agreement on %d objects" (List.length o.verdicts)
    else
      Format.fprintf fmt "@[<v 0>%a@]"
        (Format.pp_print_list ~pp_sep:Format.pp_print_cut Classify.pp_verdict)
        o.divergent
