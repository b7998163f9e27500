(* The benchmark of record.  One process runs one workload:

     perfbench --workload lookup_10k|paper_suite|day --seed N --seconds S --trace 0|1

   and prints, as its last stdout line, one JSON object with the keys
   correct, attempted, failed and metrics.  Untraced runs report the
   end-to-end metrics, traced runs the per-layer ones (README.md). *)

let workloads = [ "lookup_10k"; "paper_suite"; "day" ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("perfbench: unknown workload " ^ !workload);
    exit 2
  end;
  if !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "perfbench: --seconds must be positive and --trace 0 or 1";
    exit 2
  end;
  let r = Measure.result () in
  let seed = !seed and seconds = !seconds in
  (if !trace = 1 then Layers.run r ~workload:!workload ~seed ~seconds
   else
     match !workload with
     | "lookup_10k" -> Workloads.lookup_10k r ~seed ~seconds
     | "paper_suite" -> Workloads.paper_suite r ~seed ~seconds
     | _ -> Workloads.day r ~seed ~seconds);
  Measure.check_finite r;
  List.iter (fun v -> Printf.printf "CHECK FAILED: %s\n" v) (List.rev r.Measure.violations);
  print_endline (Measure.result_line r);
  if r.Measure.violations <> [] || r.Measure.failed > 0 then exit 1
