(** The single home of the run defaults that every layer above the
    runner shares.

    Before this module existed, scale 0.01 / seed 42 / seeds 1..20
    were re-stated independently by [Runner], [Explorer], the bench
    driver and the CLI, and could silently drift apart.  Plan-builders
    ({!Experiments}, {!Explorer}), the executables and the docs all
    read the values from here. *)

val scale : float
(** Default workload scale factor: [0.01] (1/100 of the paper's
    iteration and mass-object counts; see DESIGN.md on scaling). *)

val seed : int
(** Default scheduler seed: [42]. *)

val table_threads : int
(** Default thread count for Table 3-style experiments: [4]. *)

val explorer_scale : float
(** Default scale for full-workload seed sweeps: [0.005]. *)

val explorer_seeds : int list
(** The canonical schedule-exploration sweep: seeds [1..20]. *)

val serve_scale : float
(** Default scale of the serve sweep: [0.05] (1000 requests per
    sweep point at the full-size request count of 20000). *)

val serve_slo : int
(** Default latency SLO for goodput: p99 <= [200_000] simulated
    cycles, roughly 3x the unloaded median nginx service latency. *)

val jobs_env : string
(** Name of the environment variable overriding the worker count:
    ["KARD_JOBS"]. *)

val jobs : unit -> int
(** Worker-domain count for plan execution: [$KARD_JOBS] when set to a
    positive integer, otherwise [Domain.recommended_domain_count ()].
    A malformed or non-positive override is ignored. *)

val shards_env : string
(** ["KARD_SHARDS"], which the simulator no longer reads.  Kept only
    for perfbench, which refuses to run while it is set; goes when the
    benchmark is next revised. *)

val vkeys_env : string
(** Name of the environment variable overriding the virtual-key pool
    size: ["KARD_VKEYS"]. *)

val vkeys : unit -> int
(** Virtual-key pool for default-config Kard runs: [$KARD_VKEYS] when
    it is an integer that {!Kard_core.Config.validate} accepts as
    [vkeys] (the range the [--vkeys] flag takes), otherwise [0]
    (identity mode — byte-identical to the pre-vkey detector).  A
    malformed or out-of-range override is ignored, never clamped. *)

val sampling_env : string
(** Name of the environment variable overriding the sampling rate:
    ["KARD_SAMPLING"]. *)

val sampling : unit -> float
(** Sampling rate for default-config Kard runs: [$KARD_SAMPLING] when
    it is a float that {!Kard_core.Config.validate} accepts as
    [sampling] (the range the [--sampling] flag takes), otherwise
    [1.0] (full Kard — byte-identical to the unsampled detector).  A
    malformed or out-of-range override is ignored, never clamped. *)

val kard_config : unit -> Kard_core.Config.t
(** [Config.default] with {!vkeys} and {!sampling} applied — what
    every "default kard" surface (CLI, experiments, test harness)
    should construct, so the whole suite can be swept under virtual
    keys or a sampling rate from the environment. *)
