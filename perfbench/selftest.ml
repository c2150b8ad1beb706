(* Self-tests of the benchmark's input generators.

     selftest.exe

   For every serve workload: the same seed gives a byte-identical
   script, different seeds give different scripts, and the script
   replays through Dsim.Api with zero rejections.  For audit: the same
   seed gives the same layouts.  (run.py --selftest adds a smoke run of
   every workload that checks the metric names.) *)

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let rejections (script : Script.t) =
  let session = Dsim.Api.make (Serve_load.engine script) in
  List.fold_left
    (fun acc line ->
      match Dsim.Api.exec session (Serve_load.parse line) with
      | Dsim.Api.Rejected _ -> acc + 1
      | _ -> acc)
    0
    (Script.lines script)

let () =
  List.iter
    (fun w ->
      let make seed = Script.make w ~seed in
      let a = make 7 in
      check (w ^ ": same seed, byte-identical script")
        (Script.to_string a = Script.to_string (make 7));
      check (w ^ ": different seeds, different scripts")
        (Script.to_string a <> Script.to_string (make 8));
      check (w ^ ": replays with zero rejections") (rejections a = 0))
    Script.workloads;
  let a = Audit_load.generate ~seed:7 in
  check "audit: same seed, same layouts"
    (Audit_load.same_layouts a (Audit_load.generate ~seed:7));
  check "audit: different seeds, different layouts"
    (not (Audit_load.same_layouts a (Audit_load.generate ~seed:8)));
  if !failures > 0 then begin
    Printf.printf "%d self-test(s) failed\n" !failures;
    exit 1
  end
