(* Per-process CPU time and peak memory of the bench's daemon children,
   read from /proc from outside the daemons.  A sampler remembers each
   child's CPU reading at [start] and its latest one, so a child that is
   SIGKILLed mid-window still contributes the CPU it used up to its last
   sample (take one right before each kill). *)

let read_file path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    let s = try Some (In_channel.input_all ic) with Sys_error _ -> None in
    close_in_noerr ic;
    s

(* utime + stime in seconds, and the parent pid, from /proc/<pid>/stat.
   The command field may hold spaces, so parse after its closing paren.
   Clock ticks are USER_HZ = 100 on Linux. *)
let stat pid =
  match read_file (Fmt.str "/proc/%d/stat" pid) with
  | None -> None
  | Some s -> (
    match String.rindex_opt s ')' with
    | None -> None
    | Some i -> (
      let fields =
        String.sub s (i + 2) (String.length s - i - 2)
        |> String.split_on_char ' '
        |> Array.of_list
      in
      (* fields.(0) is field 3 (state): ppid = field 4, utime = 14, stime = 15 *)
      match
        ( int_of_string_opt fields.(1),
          float_of_string_opt fields.(11),
          float_of_string_opt fields.(12) )
      with
      | Some ppid, Some u, Some st -> Some (ppid, (u +. st) /. 100.)
      | _ -> None
      | exception Invalid_argument _ -> None))

(* VmHWM (peak resident set) in MB from /proc/<pid>/status. *)
let hwm_mb pid =
  match read_file (Fmt.str "/proc/%s/status" pid) with
  | None -> None
  | Some s ->
    String.split_on_char '\n' s
    |> List.find_map (fun line ->
           match String.split_on_char ':' line with
           | [ "VmHWM"; v ] ->
             Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb -> float_of_int kb /. 1024.)
           | _ -> None)

let children () =
  let me = Unix.getpid () in
  Sys.readdir "/proc"
  |> Array.to_list
  |> List.filter_map (fun d ->
         match int_of_string_opt d with
         | None -> None
         | Some pid -> (
           match stat pid with
           | Some (ppid, cpu) when ppid = me -> Some (pid, cpu)
           | _ -> None))

type t = {
  first : (int, float) Hashtbl.t;
  latest : (int, float) Hashtbl.t;
  mutable peak_mb : float;
  mutable peak_new_mb : float;  (** over children born after [start] *)
}

let sample t =
  List.iter
    (fun (pid, cpu) ->
      Hashtbl.replace t.latest pid cpu;
      match hwm_mb (string_of_int pid) with
      | Some mb ->
        t.peak_mb <- Float.max t.peak_mb mb;
        if not (Hashtbl.mem t.first pid) then t.peak_new_mb <- Float.max t.peak_new_mb mb
      | None -> ())
    (children ())

let start () =
  let t =
    { first = Hashtbl.create 8; latest = Hashtbl.create 8; peak_mb = 0.; peak_new_mb = 0. }
  in
  sample t;
  Hashtbl.iter (Hashtbl.replace t.first) t.latest;
  t.peak_new_mb <- 0.;
  t

(* Children CPU seconds used since [start]: a child born later counts
   from zero. *)
let cpu t =
  Hashtbl.fold
    (fun pid last acc ->
      acc +. (last -. Option.value (Hashtbl.find_opt t.first pid) ~default:0.))
    t.latest 0.

let peak_mb t = t.peak_mb
let peak_new_mb t = t.peak_new_mb

let self_peak_mb () = Option.value (hwm_mb "self") ~default:0.

let self_cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime
