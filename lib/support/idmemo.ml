(* Bounded memo keyed by physical identity.  The table hashes keys
   structurally ([Hashtbl.hash] looks at a bounded prefix of the value, so
   hashing costs O(1) whatever the key's size) and compares them with [==],
   so a lookup never walks a key and two equal-looking keys stay apart.
   Eviction is first-in first-out: the oldest entry goes when a new one
   would exceed the capacity, and is rebuilt if it is asked for again. *)

module Make (K : sig
  type t
end) =
struct
  module Tbl = Hashtbl.Make (struct
    type t = K.t

    let equal = ( == )
    let hash = Hashtbl.hash
  end)

  type 'v t = {
    mu : Mutex.t;
    capacity : int;
    table : 'v Tbl.t;
    order : K.t Queue.t;  (* insertion order, oldest first *)
  }

  let create ~capacity =
    if capacity < 1 then invalid_arg "Idmemo.create: capacity must be positive";
    { mu = Mutex.create (); capacity; table = Tbl.create 16; order = Queue.create () }

  let find_or_add t k build =
    match Mutex.protect t.mu (fun () -> Tbl.find_opt t.table k) with
    | Some v -> v
    | None ->
      (* Built outside the lock: two racing builders both build, the first
         store wins, and a build that raises stores nothing. *)
      let v = build k in
      Mutex.protect t.mu (fun () ->
          match Tbl.find_opt t.table k with
          | Some v -> v
          | None ->
            if Tbl.length t.table >= t.capacity then Tbl.remove t.table (Queue.pop t.order);
            Tbl.add t.table k v;
            Queue.push k t.order;
            v)

  let length t = Mutex.protect t.mu (fun () -> Tbl.length t.table)
end
