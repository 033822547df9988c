(* Virtual pages are handed out sequentially by the address space, so
   the pkey mirror is a vpage-indexed int array rather than a hash
   table: [pkey_of_vpage] runs on every TLB pkey re-walk — i.e. on
   the first access to a cached page after any page-table generation
   bump — and must be a bounds-checked array read, not a hash probe.

   Encoding: [-1] means "no explicit entry" (the page carries
   {!Pkey.k_def}); any other value is [Pkey.to_int] of the tag.  The
   array only grows on explicit [set_pkey] writes, so reads of
   never-tagged pages stay on the bounds-check fast path no matter
   how large the address is. *)

let no_entry = -1

type t = {
  mutable pkeys : int array; (* index = vpage *)
  mutable entries : int; (* vpages carrying a non-default key *)
  mutable generation : int;
}

let create () = { pkeys = Array.make 64 no_entry; entries = 0; generation = 0 }

let grow t vpage =
  let bigger = Array.make (Dense.grow_pow2 (Array.length t.pkeys) vpage) no_entry in
  Array.blit t.pkeys 0 bigger 0 (Array.length t.pkeys);
  t.pkeys <- bigger

let set_pkey t vpage pkey =
  if vpage < 0 then invalid_arg "Page_table.set_pkey: negative vpage";
  t.generation <- t.generation + 1;
  if Pkey.equal pkey Pkey.k_def then begin
    if vpage < Array.length t.pkeys && t.pkeys.(vpage) <> no_entry then begin
      t.pkeys.(vpage) <- no_entry;
      t.entries <- t.entries - 1
    end
  end
  else begin
    if vpage >= Array.length t.pkeys then grow t vpage;
    if t.pkeys.(vpage) = no_entry then t.entries <- t.entries + 1;
    t.pkeys.(vpage) <- Pkey.to_int pkey
  end

let iter_range ~base ~len f =
  let first = Page.vpage_of_addr base in
  let count = Page.pages_spanned base len in
  for vpage = first to first + count - 1 do
    f vpage
  done;
  count

let set_pkey_range t ~base ~len pkey = iter_range ~base ~len (fun vp -> set_pkey t vp pkey)

let pkey_of_vpage t vpage =
  if vpage < 0 || vpage >= Array.length t.pkeys then Pkey.k_def
  else
    let code = t.pkeys.(vpage) in
    if code = no_entry then Pkey.k_def else Pkey.of_int code

let pkey_of_addr t addr = pkey_of_vpage t (Page.vpage_of_addr addr)

let clear_range t ~base ~len =
  let (_ : int) =
    iter_range ~base ~len (fun vp ->
        t.generation <- t.generation + 1;
        if vp >= 0 && vp < Array.length t.pkeys && t.pkeys.(vp) <> no_entry then begin
          t.pkeys.(vp) <- no_entry;
          t.entries <- t.entries - 1
        end)
  in
  ()

let generation t = t.generation
let entry_count t = t.entries
