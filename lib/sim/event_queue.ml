type 'a cell = { time : float; seq : int; payload : 'a }

type 'a t = {
  heap : 'a cell Heap.t;
  mutable next_seq : int;
}

let cmp a b =
  let c = Float.compare a.time b.time in
  if c <> 0 then c else Int.compare a.seq b.seq

let create () = { heap = Heap.create ~cmp; next_seq = 0 }

let copy t = { heap = Heap.copy t.heap; next_seq = t.next_seq }

let schedule t ~time payload =
  if not (Float.is_finite time) || time < 0. then
    invalid_arg "Event_queue.schedule: time must be finite and non-negative";
  Heap.push t.heap { time; seq = t.next_seq; payload };
  t.next_seq <- t.next_seq + 1

let next t =
  match Heap.pop t.heap with
  | None -> None
  | Some cell -> Some (cell.time, cell.payload)

let peek_time t =
  match Heap.peek t.heap with
  | None -> None
  | Some cell -> Some cell.time

let is_empty t = Heap.is_empty t.heap

let length t = Heap.length t.heap

let sorted_cells t = List.sort cmp (Heap.to_list t.heap)

let pending t = List.map (fun c -> (c.seq, c.time, c.payload)) (sorted_cells t)

let remove_nth t i =
  if i = 0 then next t
  else if i < 0 || i >= Heap.length t.heap then None
  else begin
    let cells = sorted_cells t in
    let victim = List.nth cells i in
    Heap.clear t.heap;
    List.iteri (fun j c -> if j <> i then Heap.push t.heap c) cells;
    Some (victim.time, victim.payload)
  end

let drain t ~keep =
  let cells = Heap.to_list t.heap in
  Heap.clear t.heap;
  let surviving = List.filter (fun c -> keep (c.time, c.payload)) cells in
  List.iter (Heap.push t.heap) (List.sort cmp surviving)
