(* Expected outputs committed with the benchmark. Each workload has one
   file under golden/, one record per line: a key, then tab-separated
   fields. Every timed pass compares what the program produced with these
   records; `harness.exe record` regenerates them when a change alters the
   program's outputs on purpose. *)

let dir = "perfbench/golden"

let load name =
  let tbl = Hashtbl.create 64 in
  In_channel.with_open_text (Filename.concat dir (name ^ ".txt")) (fun ic ->
      let rec loop () =
        match In_channel.input_line ic with
        | None -> ()
        | Some line ->
          (match String.split_on_char '\t' line with
           | key :: fields when key <> "" && key.[0] <> '#' -> Hashtbl.replace tbl key fields
           | _ -> ());
          loop ()
      in
      loop ());
  tbl

let line key fields = String.concat "\t" (key :: fields)

(* Floats are compared through their exact hex rendering. *)
let hex x = Printf.sprintf "%h" x

let mapping_md5 m = Digest.to_hex (Digest.string (Mapping_io.to_string m))

(* [None] when [fields] match the record under [key], else why not. *)
let check tbl key fields =
  match Hashtbl.find_opt tbl key with
  | None -> Some "no recorded digest"
  | Some expected when expected = fields -> None
  | Some expected ->
    Some
      (Printf.sprintf "digest [%s], recorded [%s]" (String.concat " " fields)
         (String.concat " " expected))
