let scale = 0.01
let seed = 42
let table_threads = 4
let explorer_scale = 0.005
let explorer_seeds = List.init 20 (fun i -> i + 1)
let serve_scale = 0.05
let serve_slo = 200_000

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

(* An override counts only if [Config.validate] accepts it on top of
   the default config, so the environment admits exactly what the
   [--vkeys] and [--sampling] flags admit.  Anything else is ignored
   rather than clamped: a typo must not silently change detection. *)
let validated env parse set ~default =
  match Option.bind (Sys.getenv_opt env) (fun s -> parse (String.trim s)) with
  | Some v when Kard_core.Config.validate (set Kard_core.Config.default v) = Ok () -> v
  | Some _ | None -> default

(* 0 = identity mode (the physical 13 keys, byte-identical to the
   pre-vkey detector), so the default changes nothing; a positive
   override turns the whole default-config surface virtual at that
   pool size. *)
let vkeys () =
  validated vkeys_env int_of_string_opt (fun c n -> { c with Kard_core.Config.vkeys = n })
    ~default:0

let sampling_env = "KARD_SAMPLING"

(* 1.0 = full Kard (sampling disabled, byte-identical to the unsampled
   detector), so the default changes nothing; an override in (0, 1]
   turns the whole default-config surface into a sampled detector at
   that rate. *)
let sampling () =
  validated sampling_env float_of_string_opt
    (fun c r -> { c with Kard_core.Config.sampling = r })
    ~default:1.0

let kard_config () =
  { Kard_core.Config.default with
    Kard_core.Config.vkeys = vkeys ();
    sampling = sampling () }
