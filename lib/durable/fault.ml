type t =
  | Torn_final_write
  | Bit_flip
  | Truncated_segment
  | Failed_fsync
  | Disk_full
  | Slow_fsync

let all =
  [ Torn_final_write; Bit_flip; Truncated_segment; Failed_fsync; Disk_full;
    Slow_fsync ]

let to_string = function
  | Torn_final_write -> "torn-final-write"
  | Bit_flip -> "bit-flip"
  | Truncated_segment -> "truncated-segment"
  | Failed_fsync -> "failed-fsync"
  | Disk_full -> "disk-full"
  | Slow_fsync -> "slow-fsync"

let of_string s = List.find_opt (fun f -> to_string f = s) all

let pp ppf f = Format.pp_print_string ppf (to_string f)

let files_matching dir prefix =
  match Sys.readdir dir with
  | entries ->
    Array.to_list entries
    |> List.filter (fun name ->
           String.length name >= String.length prefix
           && String.sub name 0 (String.length prefix) = prefix
           && Filename.check_suffix name ".dat")
    |> List.sort compare
    |> List.map (fun name -> Filename.concat dir name)
  | exception Sys_error _ -> []

let size path = (Unix.stat path).Unix.st_size

let truncate path len =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.ftruncate fd len)

let flip_byte path off mask =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let b = Bytes.create 1 in
      ignore (Unix.lseek fd off Unix.SEEK_SET : int);
      if Unix.read fd b 0 1 = 1 then begin
        Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor mask));
        ignore (Unix.lseek fd off Unix.SEEK_SET : int);
        ignore (Unix.write fd b 0 1 : int)
      end)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Structural targeting: damage is aimed at a {e record} (index chosen by
   [rand]), located by scanning the file's Codec frames, never at a raw
   byte offset of the whole file.  Record boundaries move when the record
   format evolves (new fields, bigger payloads), but "the 3rd record" stays
   the 3rd record — so campaigns keep damaging what they meant to damage
   across format changes (the E12 refresh that PR 7's [lg_window] forced
   cannot recur).  Returns [(start, len)] spans, oldest first. *)
let record_spans path =
  let contents = read_file path in
  let rec loop pos acc =
    match Codec.decode contents ~pos with
    | Codec.Record { next; _ } -> loop next ((pos, next - pos) :: acc)
    | Codec.Truncated | Codec.Corrupt | Codec.End -> List.rev acc
    | exception Invalid_argument _ -> List.rev acc
  in
  (loop 0 [], String.length contents)

let apply ~dir ~rand fault =
  match fault with
  | Failed_fsync -> "failed fsync (armed on the live store before the kill)"
  | Disk_full -> "disk full (armed on the live store; flushes refuse)"
  | Slow_fsync -> "slow fsync (describe-only: nothing armed)"
  | Torn_final_write -> (
    match
      List.filter (fun p -> size p > 0) (files_matching dir "seg-") |> List.rev
    with
    | [] -> "torn final write: no log bytes to tear"
    | last :: _ -> (
      match record_spans last with
      | [], sz ->
        (* No decodable record: shear trailing bytes as before. *)
        let tear = 1 + rand (min 16 sz) in
        truncate last (sz - tear);
        Printf.sprintf "tore %d trailing bytes off %s" tear
          (Filename.basename last)
      | spans, sz ->
        (* Cut into the final record: keep everything before it plus a
           random proper prefix of it (possibly mid-header). *)
        let start, len = List.nth spans (List.length spans - 1) in
        let keep = start + rand len in
        truncate last (min keep sz);
        Printf.sprintf "tore record %d of %s mid-write (kept %d of %d bytes)"
          (List.length spans - 1)
          (Filename.basename last) (keep - start) len))
  | Truncated_segment -> (
    match List.filter (fun p -> size p > 0) (files_matching dir "seg-") with
    | [] -> "truncated segment: no log bytes to cut"
    | segs -> (
      let victim = List.nth segs (rand (List.length segs)) in
      match record_spans victim with
      | [], sz ->
        let keep = rand sz in
        truncate victim keep;
        Printf.sprintf "truncated %s from %d to %d bytes"
          (Filename.basename victim) sz keep
      | spans, sz ->
        (* Cut at a record boundary: keep the first [k] records. *)
        let k = rand (List.length spans) in
        let keep =
          if k = 0 then 0
          else
            let start, len = List.nth spans (k - 1) in
            start + len
        in
        truncate victim keep;
        Printf.sprintf "truncated %s to its first %d of %d records (%d of %d bytes)"
          (Filename.basename victim) k (List.length spans) keep sz))
  | Bit_flip -> (
    let candidates =
      (files_matching dir "seg-" @ files_matching dir "ckpt-"
      @
      let s = Filename.concat dir "sync.dat" in
      if Sys.file_exists s then [ s ] else [])
      |> List.filter (fun p -> size p > 0)
    in
    match candidates with
    | [] -> "bit flip: no bytes to flip"
    | files -> (
      let victim = List.nth files (rand (List.length files)) in
      match record_spans victim with
      | [], sz ->
        let off = rand sz in
        let bit = rand 8 in
        flip_byte victim off (1 lsl bit);
        Printf.sprintf "flipped bit %d of byte %d in %s" bit off
          (Filename.basename victim)
      | spans, _ ->
        let idx = rand (List.length spans) in
        let start, len = List.nth spans idx in
        let off = start + rand len in
        let bit = rand 8 in
        flip_byte victim off (1 lsl bit);
        Printf.sprintf "flipped bit %d of record %d (byte %d of %d) in %s" bit
          idx (off - start) len
          (Filename.basename victim)))
