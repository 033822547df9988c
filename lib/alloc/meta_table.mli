(** Address-to-object resolution.

    Because every object lives on its own virtual pages, resolving a
    faulting address only needs a page-granular index; the object's
    base/size then confirm the hit and yield the byte offset.  Object
    ids and virtual pages are handed out in sequence, so both indexes
    are arrays that start small and grow by doubling with the
    program; no lookup hashes or allocates. *)

type t

val create : unit -> t

val register : t -> Obj_meta.t -> unit
(** Index the object under its id and every virtual page it spans.
    A page already indexed now resolves to this object.
    @raise Invalid_argument on a negative id or address. *)

val unregister : t -> Obj_meta.t -> unit
(** Drop the object's id, and each of its pages that still resolves
    to it (a page since re-registered to a later object keeps it). *)

val find_addr : t -> Kard_mpk.Page.addr -> Obj_meta.t option
(** The live object containing this exact address, if any. *)

val find_vpage : t -> Kard_mpk.Page.vpage -> Obj_meta.t option
(** The live object registered last on this page.  Unique-page
    allocation puts at most one object on a page; the native
    allocator packs several, and then the latest one wins.  [None]
    for pages never indexed, including negative ones. *)

val find_id : t -> int -> Obj_meta.t option
(** [None] for ids never registered or since unregistered. *)

val live_count : t -> int

val iter : t -> (Obj_meta.t -> unit) -> unit
(** Visit every live object in ascending id order. *)
