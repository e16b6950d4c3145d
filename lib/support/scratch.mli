(** Per-domain reusable scratch buffers, safe for systhreads.  A user takes
    the domain's buffer out of its cell for as long as it uses it and puts
    it back when done; a user that finds the cell empty (another thread of
    the domain holds the buffer, or an exception lost it) gets a fresh one.
    Contents are whatever the last user left: callers initialize what they
    read. *)

type 'a t

(** [create ~size ~make] describes a buffer kind: [size b] is its capacity,
    [make n] allocates one of capacity [n]. *)
val create : size:('a -> int) -> make:(int -> 'a) -> 'a t

(** A buffer of capacity at least [need], owned by the caller until
    {!release}. *)
val take : 'a t -> int -> 'a

(** Return a buffer to the calling domain's cell. *)
val release : 'a t -> 'a -> unit
