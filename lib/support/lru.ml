(* Weight-bounded LRU map: a hash table onto the nodes of a doubly-linked
   recency list, newest at one end and the eviction candidate at the other,
   so find, add and each eviction are O(1). *)

type ('k, 'v) node = {
  key : 'k;
  value : 'v;
  node_weight : int;
  mutable newer : ('k, 'v) node option;
  mutable older : ('k, 'v) node option;
}

type ('k, 'v) t = {
  table : ('k, ('k, 'v) node) Hashtbl.t;
  budget : int;
  mutable total : int;
  mutable newest : ('k, 'v) node option;
  mutable oldest : ('k, 'v) node option;
}

let create ~budget () =
  { table = Hashtbl.create 256; budget; total = 0; newest = None; oldest = None }

let unlink t n =
  (match n.newer with Some m -> m.older <- n.older | None -> t.newest <- n.older);
  (match n.older with Some m -> m.newer <- n.newer | None -> t.oldest <- n.newer);
  n.newer <- None;
  n.older <- None

let push_newest t n =
  n.older <- t.newest;
  (match t.newest with Some m -> m.newer <- Some n | None -> t.oldest <- Some n);
  t.newest <- Some n

let touch t n =
  match t.newest with
  | Some m when m == n -> ()
  | Some _ | None ->
    unlink t n;
    push_newest t n

let find t k =
  match Hashtbl.find_opt t.table k with
  | None -> None
  | Some n ->
    touch t n;
    Some n.value

let rec evict t evicted =
  match t.oldest with
  | Some n when t.total > t.budget ->
    unlink t n;
    Hashtbl.remove t.table n.key;
    t.total <- t.total - n.node_weight;
    evict t (evicted + 1)
  | Some _ | None -> evicted

let add t k v ~weight =
  match Hashtbl.find_opt t.table k with
  | Some n ->
    touch t n;
    0
  | None when weight > t.budget -> 0
  | None ->
    let n = { key = k; value = v; node_weight = weight; newer = None; older = None } in
    Hashtbl.replace t.table k n;
    push_newest t n;
    t.total <- t.total + weight;
    evict t 0

let weight t = t.total
let length t = Hashtbl.length t.table

let clear t =
  Hashtbl.reset t.table;
  t.total <- 0;
  t.newest <- None;
  t.oldest <- None
