type t =
  | Random of int
  | Round_robin
  | Replay of int array

type state = {
  policy : t;
  rng : Random.State.t;
  mutable cursor : int;
  mutable rr_last : int;
}

let start policy =
  { policy;
    rng = Random.State.make [| (match policy with Random seed -> seed | Round_robin | Replay _ -> 0) |];
    cursor = 0;
    rr_last = -1 }

let round_robin state runnable =
  (* The smallest runnable thread id strictly greater than the last
     pick, wrapping around. *)
  match Runnable_set.first_above runnable state.rr_last with
  | Some tid -> tid
  | None -> (
    match Runnable_set.min_elt runnable with
    | Some tid -> tid
    | None -> invalid_arg "Schedule.pick: empty runnable set")

let pick state ~runnable =
  assert (Runnable_set.cardinal runnable > 0);
  let choice =
    match state.policy with
    | Random _ ->
      (* Index into the runnable set in descending-tid order: the exact
         order of the pre-array machine's thread list (reverse spawn
         order), so seeded schedules replay bit-identically. *)
      Runnable_set.kth_largest runnable
        (Random.State.int state.rng (Runnable_set.cardinal runnable))
    | Round_robin -> round_robin state runnable
    | Replay tape ->
      if state.cursor < Array.length tape && Runnable_set.mem runnable tape.(state.cursor) then
        tape.(state.cursor)
      else round_robin state runnable
  in
  state.cursor <- state.cursor + 1;
  state.rr_last <- choice;
  choice

let pp fmt = function
  | Random seed -> Format.fprintf fmt "random(seed=%d)" seed
  | Round_robin -> Format.pp_print_string fmt "round-robin"
  | Replay tape -> Format.fprintf fmt "replay(%d picks)" (Array.length tape)
