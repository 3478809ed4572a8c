(* Slots hold ['a option] so vacated positions can be released: a bare
   ['a array] backing store would keep popped payloads (and, after [grow],
   copies of the seed element in every spare slot) reachable until they
   are overwritten, pinning arbitrarily large event payloads across the
   life of the queue. *)
type 'a t = {
  cmp : 'a -> 'a -> int;
  mutable data : 'a option array;
  mutable size : int;
}

let create ~cmp = { cmp; data = [||]; size = 0 }

let length t = t.size

let is_empty t = t.size = 0

let get t i = match t.data.(i) with Some x -> x | None -> assert false

let grow t =
  let capacity = Array.length t.data in
  if t.size = capacity then begin
    let capacity' = if capacity = 0 then 16 else 2 * capacity in
    let data' = Array.make capacity' None in
    Array.blit t.data 0 data' 0 t.size;
    t.data <- data'
  end

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.cmp (get t i) (get t parent) < 0 then begin
      let tmp = t.data.(i) in
      t.data.(i) <- t.data.(parent);
      t.data.(parent) <- tmp;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && t.cmp (get t l) (get t !smallest) < 0 then smallest := l;
  if r < t.size && t.cmp (get t r) (get t !smallest) < 0 then smallest := r;
  if !smallest <> i then begin
    let tmp = t.data.(i) in
    t.data.(i) <- t.data.(!smallest);
    t.data.(!smallest) <- tmp;
    sift_down t !smallest
  end

let push t x =
  grow t;
  t.data.(t.size) <- Some x;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let peek t = if t.size = 0 then None else Some (get t 0)

let pop t =
  if t.size = 0 then None
  else begin
    let top = get t 0 in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.data.(0) <- t.data.(t.size);
      sift_down t 0
    end;
    t.data.(t.size) <- None;
    Some top
  end

let pop_exn t =
  match pop t with
  | Some x -> x
  | None -> invalid_arg "Heap.pop_exn: empty heap"

let copy t = { t with data = Array.copy t.data }

let clear t =
  t.data <- [||];
  t.size <- 0

let to_list t =
  let rec loop i acc = if i < 0 then acc else loop (i - 1) (get t i :: acc) in
  loop (t.size - 1) []
