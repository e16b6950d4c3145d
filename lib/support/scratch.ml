(* One atomic cell per domain: [take] swaps the buffer out, so two threads
   of a domain can never hold the same buffer, and [release] swaps it back
   (the last release wins when both allocated). *)

type 'a t = {
  cell : 'a option Atomic.t Domain.DLS.key;
  size : 'a -> int;
  make : int -> 'a;
}

let create ~size ~make = { cell = Domain.DLS.new_key (fun () -> Atomic.make None); size; make }

let take t need =
  match Atomic.exchange (Domain.DLS.get t.cell) None with
  | Some b when t.size b >= need -> b
  | Some b -> t.make (max need (2 * t.size b))
  | None -> t.make need

let release t b = Atomic.set (Domain.DLS.get t.cell) (Some b)
