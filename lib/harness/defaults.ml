let scale = 0.01
let seed = 42
let table_threads = 4
let explorer_scale = 0.005
let explorer_seeds = List.init 20 (fun i -> i + 1)
let throughput_scale = 0.05
let serve_scale = 0.05
let serve_slo = 200_000

let throughput_out = "BENCH_pr4.json"
let parallel_out = "BENCH_pr3.json"
let serve_out = "BENCH_pr6.json"
let keys_out = "BENCH_pr8.json"
let sampling_out = "BENCH_pr9.json"
let record_out = "BENCH_pr10.json"

let jobs_env = "KARD_JOBS"

let jobs () =
  match Sys.getenv_opt jobs_env with
  | Some s ->
    (match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | Some _ | None -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

let shards_env = "KARD_SHARDS"

let vkeys_env = "KARD_VKEYS"

(* 0 = identity mode (the physical 13 keys, byte-identical to the
   pre-vkey detector), so the default changes nothing; a positive
   override turns the whole default-config surface virtual at that
   pool size. *)
let vkeys () =
  match Sys.getenv_opt vkeys_env with
  | Some s ->
    (match int_of_string_opt (String.trim s) with
    | Some n when n >= 0 -> n
    | Some _ | None -> 0)
  | None -> 0

let sampling_env = "KARD_SAMPLING"

(* 1.0 = full Kard (sampling disabled, byte-identical to the unsampled
   detector), so the default changes nothing; an override in (0, 1]
   turns the whole default-config surface into a sampled detector at
   that rate.  Malformed or out-of-range values are ignored rather
   than clamped — a typo must not silently weaken detection. *)
let sampling () =
  match Sys.getenv_opt sampling_env with
  | Some s ->
    (match float_of_string_opt (String.trim s) with
    | Some r when r > 0.0 && r <= 1.0 -> r
    | Some _ | None -> 1.0)
  | None -> 1.0

let kard_config () =
  { Kard_core.Config.default with
    Kard_core.Config.vkeys = vkeys ();
    sampling = sampling () }
