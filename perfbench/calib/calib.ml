(* The host-speed calibration of the perfbench benchmark: a fixed amount of
   OCaml work of the kind the checker does (short-lived lists and arrays,
   structural hashing into a table that survives into the major heap,
   sorting), independent of the repository's code. perfbench/run.py runs it
   between the timed commands and divides their times by its time, so a
   host that slows down for a while slows both alike and the ratio stays.

   Usage: calib.exe ROUNDS   (prints a checksum) *)

let () =
  let rounds = int_of_string Sys.argv.(1) in
  let st = Random.State.make [| 42 |] in
  let acc = ref 0 in
  for round = 1 to rounds do
    let tbl = Hashtbl.create 1024 in
    for i = 0 to 4999 do
      let key = List.init 6 (fun j -> ((i * 7) + (j * round)) land 255) in
      let arr = Array.init 8 (fun k -> k + Random.State.int st 100) in
      (match Hashtbl.find_opt tbl key with
       | Some a -> acc := !acc + a.(0)
       | None -> Hashtbl.replace tbl key arr);
      let l = List.rev_map (fun x -> x * 3) key in
      acc := !acc + List.fold_left ( + ) 0 (List.sort compare l)
    done;
    acc := !acc + Hashtbl.length tbl
  done;
  Printf.printf "%d\n" !acc
