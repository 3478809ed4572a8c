(* Bench-side tracing: spans recorded around calls into the system's
   public functions, kept in memory and written out when the run ends.
   Recording is off unless the run was started with [--trace 1]; an off
   recorder costs one branch per call site. *)

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (** enclosing span's id, -1 at top level *)
  op : int;  (** workload operation index, -1 when not per-op *)
}

let on = ref false
let recorded : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []

let enable () = on := true

let time ?(op = -1) name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let start = Unix.gettimeofday () in
    let finish () =
      let stop = Unix.gettimeofday () in
      stack := List.tl !stack;
      recorded := { id; name; start; stop; parent; op } :: !recorded
    in
    Fun.protect ~finally:finish f
  end

(* Durations in seconds of every span with this name, oldest first. *)
let durations name =
  List.fold_left
    (fun acc s -> if s.name = name then (s.stop -. s.start) :: acc else acc)
    [] !recorded

let dump file =
  let oc = open_out file in
  output_string oc "id\tname\tstart\tstop\tparent\top\n";
  List.iter
    (fun s ->
      Printf.fprintf oc "%d\t%s\t%.6f\t%.6f\t%d\t%d\n" s.id s.name s.start s.stop
        s.parent s.op)
    (List.rev !recorded);
  close_out oc
