type section_identity =
  | By_call_site
  | By_lock

type t = {
  data_keys : int;
  proactive_acquisition : bool;
  protection_interleaving : bool;
  timestamp_pruning : bool;
  redundancy_pruning : bool;
  metadata_pruning : bool;
  prefer_recycle : bool;
  share_disjoint_sections : bool;
  software_fallback : bool;
  exit_delay_cycles : int;
  section_identity : section_identity;
  vkeys : int;
  sampling : float;
  sampling_epoch : int;
  sampling_seed : int;
}

let default =
  { data_keys = Kard_mpk.Pkey.data_key_count;
    proactive_acquisition = true;
    protection_interleaving = true;
    timestamp_pruning = true;
    redundancy_pruning = true;
    metadata_pruning = true;
    prefer_recycle = true;
    share_disjoint_sections = true;
    software_fallback = false;
    exit_delay_cycles = 0;
    section_identity = By_call_site;
    vkeys = 0;
    sampling = 1.0;
    sampling_epoch = 2_000_000;
    sampling_seed = 0x5eed }

let pp fmt t =
  Format.fprintf fmt
    "@[<h>{keys=%d proactive=%b interleave=%b ts-prune=%b dedupe=%b meta-prune=%b recycle=%b \
     share-disjoint=%b soft-fallback=%b vkeys=%d sampling=%g}@]"
    t.data_keys t.proactive_acquisition t.protection_interleaving t.timestamp_pruning
    t.redundancy_pruning t.metadata_pruning t.prefer_recycle t.share_disjoint_sections
    t.software_fallback t.vkeys t.sampling

let max_vkeys = 1 lsl 20
let max_exit_delay_cycles = 1 lsl 40

(* The one statement of every field's range; whatever builds a config
   from outside input (CLI flags, replay-log headers) checks it here
   rather than letting a constructor deep inside a run raise. *)
let validate t =
  let fail fmt = Printf.ksprintf (fun msg -> Error msg) fmt in
  if t.data_keys < 1 || t.data_keys > Kard_mpk.Pkey.data_key_count then
    fail "data keys must be within [1, %d] (got %d)" Kard_mpk.Pkey.data_key_count t.data_keys
  else if t.vkeys < 0 || t.vkeys > max_vkeys then
    fail "vkeys must be within [0, %d] (got %d)" max_vkeys t.vkeys
  else if not (t.sampling > 0.0 && t.sampling <= 1.0) then
    fail "sampling rate must be in (0, 1] (got %g)" t.sampling
  else if t.sampling_epoch < 0 then fail "sampling epoch must be >= 0 (got %d)" t.sampling_epoch
  else if t.exit_delay_cycles < 0 || t.exit_delay_cycles > max_exit_delay_cycles then
    fail "exit delay must be within [0, %d] cycles (got %d)" max_exit_delay_cycles
      t.exit_delay_cycles
  else Ok ()
