module Page = Kard_mpk.Page
module Dense = Kard_mpk.Dense

(* Allocators hand out object ids and virtual pages in sequence, so
   both indexes are plain arrays grown by doubling: a fault or a vkey
   retag resolves its object with a bounds-checked read, and a fresh
   table is two 16-slot arrays, so set-up cost follows the program.
   Slots hold the [Some] cell built once at [register], so lookups
   return it without allocating. *)
type t = {
  mutable by_id : Obj_meta.t option array; (* index = object id *)
  mutable by_vpage : Obj_meta.t option array; (* index = vpage *)
  mutable live : int;
}

let initial_slots = 16

let create () =
  { by_id = Array.make initial_slots None; by_vpage = Array.make initial_slots None; live = 0 }

let grown slots needed =
  let have = Array.length slots in
  if needed < have then slots
  else begin
    let bigger = Array.make (Dense.grow_pow2 have needed) None in
    Array.blit slots 0 bigger 0 have;
    bigger
  end

let register t (meta : Obj_meta.t) =
  let id = meta.id in
  let first = Page.vpage_of_addr meta.base in
  if id < 0 then invalid_arg "Meta_table.register: negative object id";
  if first < 0 then invalid_arg "Meta_table.register: negative address";
  let entry = Some meta in
  t.by_id <- grown t.by_id id;
  if Option.is_none t.by_id.(id) then t.live <- t.live + 1;
  t.by_id.(id) <- entry;
  t.by_vpage <- grown t.by_vpage (first + meta.pages - 1);
  Array.fill t.by_vpage first meta.pages entry

let lookup slots i = if i < 0 || i >= Array.length slots then None else Array.unsafe_get slots i

let unregister t (meta : Obj_meta.t) =
  let id = meta.id in
  if Option.is_some (lookup t.by_id id) then begin
    t.by_id.(id) <- None;
    t.live <- t.live - 1
  end;
  let first = Page.vpage_of_addr meta.base in
  for vp = first to first + meta.pages - 1 do
    match lookup t.by_vpage vp with
    | Some m when Obj_meta.equal m meta -> t.by_vpage.(vp) <- None
    | Some _ | None -> ()
  done

let find_vpage t vpage = lookup t.by_vpage vpage

let find_addr t addr =
  match find_vpage t (Page.vpage_of_addr addr) with
  | Some meta as hit when Obj_meta.contains meta addr -> hit
  | Some _ | None -> None

let find_id t id = lookup t.by_id id
let live_count t = t.live

let iter t f = Array.iter (Option.iter f) t.by_id
