(* The traced replay of a serve workload.

   The lines the daemon received in an end-to-end run are replayed
   in-process, one request at a time, through the public entry points of
   each layer, with every call timed from here (no spans inside the
   program):

   - Dsim.Api: parse_request, exec and response_to_line on a session
     like the daemon's; each rendered line must equal the daemon's;
   - Dsim.Churn: apply / rescore on a twin engine fed the same events;
   - Placement.Adaptive and Placement.Kernel.Dyn: a second twin that
     repeats Churn's own composition of the two (create = add + bind,
     leave = retire + replace each evicted object, ...), so each call
     is timed on its own;
   - Dsim.Serve: Serve.run over the same lines from a file to /dev/null.

   Telemetry stays off except around each Churn.rescore call of the
   twin engine, where it is switched on to read the Stable rescore
   counters Churn already keeps, and around Serve.run, to read its
   per-request span. *)

let now = Clock.now

let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* Placement.Adaptive + Placement.Kernel.Dyn, composed as Churn composes
   them (id <-> slot maps included), with per-call timings. *)
module Twin = struct
  type t = {
    placement : Placement.Adaptive.t;
    dyn : Placement.Kernel.Dyn.t;
    tree : Topology.Tree.t;
    up : bool array;
    in_service : bool array;
    id_slot : (int, int) Hashtbl.t;
    mutable slot_id : int array;
  }

  let create (script : Script.t) =
    let n = Script.n in
    {
      placement = Placement.Adaptive.create ~n ~r:Script.r ~s:Script.s ~k:Script.k ();
      dyn = Placement.Kernel.Dyn.create ~units:n ~s:Script.s;
      tree =
        (match script.topology with
        | Some spec -> Topology.Spec.parse_exn spec
        | None -> Topology.Build.flat n);
      up = Array.make n true;
      in_service = Array.make n true;
      id_slot = Hashtbl.create 1024;
      slot_id = [||];
    }

  type samples = {
    add : Stats.Samples.t;
    peek : Stats.Samples.t;
    replace : Stats.Samples.t;
    retire : Stats.Samples.t;
    unretire : Stats.Samples.t;
    dyn_add : Stats.Samples.t;
    dyn_remove : Stats.Samples.t;
  }

  let samples () =
    let s = Stats.Samples.create in
    { add = s (); peek = s (); replace = s (); retire = s (); unretire = s ();
      dyn_add = s (); dyn_remove = s () }

  let bind t sm id =
    let rs = Placement.Adaptive.replica_set t.placement id in
    let slot, dt = timed (fun () -> Placement.Kernel.Dyn.add_object t.dyn rs) in
    Stats.Samples.add sm.dyn_add dt;
    if slot >= Array.length t.slot_id then begin
      let grown = Array.make (max 16 (2 * slot)) (-1) in
      Array.blit t.slot_id 0 grown 0 (Array.length t.slot_id);
      t.slot_id <- grown
    end;
    t.slot_id.(slot) <- id;
    Hashtbl.replace t.id_slot id slot

  let unbind t sm id =
    let slot = Hashtbl.find t.id_slot id in
    let last, dt = timed (fun () -> Placement.Kernel.Dyn.remove_object t.dyn slot) in
    Stats.Samples.add sm.dyn_remove dt;
    Hashtbl.remove t.id_slot id;
    if last <> slot then begin
      let moved = t.slot_id.(last) in
      t.slot_id.(slot) <- moved;
      Hashtbl.replace t.id_slot moved slot
    end

  let fail t nd =
    if t.up.(nd) then begin
      t.up.(nd) <- false;
      Placement.Kernel.Dyn.fail_unit t.dyn nd
    end

  let recover t nd =
    if not t.up.(nd) then begin
      t.up.(nd) <- true;
      Placement.Kernel.Dyn.recover_unit t.dyn nd
    end

  let apply t sm = function
    | Dsim.Event.Object_create ->
        let id, dt = timed (fun () -> Placement.Adaptive.add t.placement) in
        Stats.Samples.add sm.add dt;
        bind t sm id
    | Object_delete id ->
        Placement.Adaptive.remove t.placement id;
        unbind t sm id
    | Node_fail nd -> fail t nd
    | Node_recover nd -> recover t nd
    | Domain_fail (level, d) ->
        Array.iter
          (fun nd -> if t.in_service.(nd) then fail t nd)
          (Topology.Tree.members t.tree ~level d)
    | Node_leave nd ->
        let evicted, dt =
          timed (fun () -> Placement.Adaptive.retire_node t.placement nd)
        in
        Stats.Samples.add sm.retire dt;
        List.iter
          (fun id ->
            let (), dt = timed (fun () -> Placement.Adaptive.replace t.placement id) in
            Stats.Samples.add sm.replace dt;
            unbind t sm id;
            bind t sm id)
          evicted;
        recover t nd;
        t.in_service.(nd) <- false
    | Node_join nd ->
        let (), dt =
          timed (fun () -> Placement.Adaptive.unretire_node t.placement nd)
        in
        Stats.Samples.add sm.unretire dt;
        t.in_service.(nd) <- true
    | Measure _ -> ()

  let advise t sm =
    let _, dt = timed (fun () -> Placement.Adaptive.peek t.placement) in
    Stats.Samples.add sm.peek dt
end

let counter path = Telemetry.Counter.value (Telemetry.Registry.counter path)

let us x = x *. 1e6
let ms x = x *. 1e3
let kreq requests = float_of_int requests /. 1000.

(* Serve.run over [lines] from a file to /dev/null on a fresh engine,
   with telemetry on: its wall, and the part of it inside the
   per-request span (parse, exec, render and the response write). *)
let serve_from_file ~tmp (script : Script.t) lines =
  let path = Filename.concat tmp (Printf.sprintf "requests.%d" (Unix.getpid ())) in
  let oc = open_out_bin path in
  Array.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  close_out oc;
  let input = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  let output = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let span = Telemetry.Registry.span "sim/serve/request" in
  Fun.protect
    ~finally:(fun () ->
      Telemetry.Control.set_enabled false;
      Unix.close input;
      Unix.close output;
      Sys.remove path)
    (fun () ->
      let session = Dsim.Api.make (Serve_load.engine script) in
      Telemetry.Control.set_enabled true;
      let in_span0 = Telemetry.Span.total_ns span in
      let (), wall = timed (fun () -> ignore (Dsim.Serve.run session ~input ~output)) in
      (wall, float_of_int (Telemetry.Span.total_ns span - in_span0) *. 1e-9))

(* Pass A: the Api session alone, as the daemon runs it (telemetry off).
   Returns per-line parse/exec/render times, whether every rendered line
   and the summary equal the daemon's, the bytes rendered and the GC
   work. *)
type api_pass = {
  parse : float array;
  exec : float array;
  render : float array;
  matches : bool;
  bytes : int;
  gc0 : Gc.stat;
  gc1 : Gc.stat;
  session : Dsim.Api.session;
}

let api_pass (script : Script.t) lines expected =
  let m = Array.length lines in
  let parse = Array.make m 0. and exec = Array.make m 0. and render = Array.make m 0. in
  let session = Dsim.Api.make (Serve_load.engine script) in
  let matches = ref true and bytes = ref 0 in
  let gc0 = Gc.quick_stat () in
  Array.iteri
    (fun i line ->
      let req, dp = timed (fun () -> Serve_load.parse line) in
      let resp, de = timed (fun () -> Dsim.Api.exec session req) in
      let out, dr = timed (fun () -> Dsim.Api.response_to_line resp) in
      parse.(i) <- dp;
      exec.(i) <- de;
      render.(i) <- dr;
      if out <> expected.(i) then matches := false;
      bytes := !bytes + String.length out + 1)
    lines;
  let gc1 = Gc.quick_stat () in
  let matches = !matches && Serve_load.summary_line session = expected.(m) ^ "\n" in
  { parse; exec; render; matches; bytes = !bytes; gc0; gc1; session }

let run ~tmp (script : Script.t) (e2e : Serve_load.rep) =
  let lines = Array.of_list (Script.lines script) in
  let requests = Array.length lines in
  let timed_from = List.length (Script.lines { script with steps = [||] }) in
  let expected = Array.of_list (String.split_on_char '\n' e2e.output) in
  let a = api_pass script lines expected in
  (* Pass B: the twins, with telemetry off like the daemon's, except
     around each rescore, whose Stable counters it reads. *)
  let churn = Serve_load.engine script in
  let twin = Twin.create script in
  let sm = Twin.samples () in
  let s = Stats.Samples.create in
  let create = s () and delete = s () and fail = s () and leave = s ()
  and join = s () and rescore = s () and overhead = s () in
  let moved = ref 0 and leaves = ref 0 and queries = ref 0 in
  let evals0 = counter "sim/churn/rescore/evals"
  and pops0 = counter "sim/churn/rescore/heap_pops" in
  Array.iteri
    (fun i line ->
      match Serve_load.parse line with
      | Dsim.Api.Apply ev ->
          let step, dt = timed (fun () -> Dsim.Churn.apply churn ev) in
          Stats.Samples.add overhead (a.exec.(i) -. dt);
          (match ev with
          | Object_create -> Stats.Samples.add create dt
          | Object_delete _ -> Stats.Samples.add delete dt
          | Node_fail _ -> Stats.Samples.add fail dt
          | Node_leave _ ->
              Stats.Samples.add leave dt;
              incr leaves;
              moved := !moved + step.Dsim.Churn.moved
          | Node_join _ -> Stats.Samples.add join dt
          | _ -> ());
          Twin.apply twin sm ev
      | Query (Worst k) ->
          Telemetry.Control.set_enabled true;
          let _, dt = timed (fun () -> Dsim.Churn.rescore ?k churn) in
          Telemetry.Control.set_enabled false;
          Stats.Samples.add rescore dt;
          incr queries
      | Query Advise_create -> Twin.advise twin sm
      | _ -> ())
    lines;
  let evals = counter "sim/churn/rescore/evals" - evals0
  and pops = counter "sim/churn/rescore/heap_pops" - pops0 in
  let layouts_agree =
    (Placement.Adaptive.layout twin.placement).replicas
    = (Dsim.Churn.layout (Dsim.Api.engine a.session)).replicas
  in
  (* Pass C: the daemon loop itself. *)
  let serve_wall, in_span = serve_from_file ~tmp script lines in
  let tb = Report.Table.create Report.per_layer in
  let set name ?samples v = Report.Table.set tb name ?samples v in
  let arr = Stats.Samples.to_array in
  let med_us name x = set name ~samples:(Array.length x) (us (Stats.median x)) in
  let pct_us name p x = set name ~samples:(Array.length (arr x)) (us (Stats.nearest_rank p (arr x))) in
  let pct_ms name p x = set name ~samples:(Array.length (arr x)) (ms (Stats.nearest_rank p (arr x))) in
  let per_request x = x /. float_of_int requests in
  set "serve.frame_us" ~samples:requests (us (per_request (serve_wall -. in_span)));
  set "serve.bytes_per_resp" ~samples:requests (per_request (float_of_int a.bytes));
  med_us "api.parse_us" a.parse;
  med_us "api.render_us" a.render;
  med_us "api.exec_overhead_us" (arr overhead);
  pct_us "churn.create_p50_us" 50. create;
  pct_us "churn.create_p99_us" 99. create;
  pct_us "churn.delete_p50_us" 50. delete;
  pct_us "churn.fail_p50_us" 50. fail;
  pct_ms "churn.leave_p50_ms" 50. leave;
  pct_ms "churn.leave_p99_ms" 99. leave;
  pct_ms "churn.join_p50_ms" 50. join;
  if !leaves > 0 then
    set "churn.moved_per_leave" ~samples:!leaves
      (float_of_int !moved /. float_of_int !leaves);
  pct_ms "churn.rescore_p50_ms" 50. rescore;
  pct_ms "churn.rescore_p99_ms" 99. rescore;
  pct_us "adaptive.add_p50_us" 50. sm.add;
  pct_us "adaptive.add_p99_us" 99. sm.add;
  (* Growth of the add cost over pre-population: the mean of its last
     tenth over the mean of its first tenth. *)
  (let adds = arr sm.add in
   let tenth = Script.fill / 10 in
   if Array.length adds >= Script.fill then
     set "adaptive.add_growth" ~samples:Script.fill
       (Stats.mean (Array.sub adds (Script.fill - tenth) tenth)
       /. Stats.mean (Array.sub adds 0 tenth)));
  med_us "adaptive.peek_us" (arr sm.peek);
  pct_us "adaptive.replace_p50_us" 50. sm.replace;
  pct_ms "adaptive.retire_p50_ms" 50. sm.retire;
  pct_ms "adaptive.unretire_p50_ms" 50. sm.unretire;
  if !queries > 0 then begin
    set "kernel.rescore_evals" ~samples:!queries
      (float_of_int evals /. float_of_int !queries);
    set "kernel.rescore_pops" ~samples:!queries
      (float_of_int pops /. float_of_int !queries)
  end;
  med_us "kernel.dyn_add_us" (arr sm.dyn_add);
  med_us "kernel.dyn_remove_us" (arr sm.dyn_remove);
  set "gc.minor_mb_per_kreq" ~samples:requests
    ((a.gc1.minor_words -. a.gc0.minor_words) *. float_of_int (Sys.word_size / 8)
     /. 1048576. /. kreq requests);
  set "gc.major_per_kreq" ~samples:requests
    (float_of_int (a.gc1.major_collections - a.gc0.major_collections) /. kreq requests);
  (* Time of the timed-phase requests inside the layers (pass A). *)
  let in_layers = ref 0. in
  for i = timed_from to requests - 1 do
    in_layers := !in_layers +. a.parse.(i) +. a.exec.(i) +. a.render.(i)
  done;
  set "unattributed_share" ((e2e.timed_wall -. !in_layers) /. e2e.timed_wall);
  let correct = a.matches && layouts_agree in
  if not correct then
    prerr_endline
      (Printf.sprintf "check failed: daemon output = Api replay %b, twin layout %b"
         a.matches layouts_agree);
  (correct, Report.Table.metrics tb)
