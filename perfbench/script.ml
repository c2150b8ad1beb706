(* Seeded request scripts for the serve workloads.

   A script is the exact byte stream the daemon receives, one request per
   line, cut into the units the client sends: a [Burst] is written whole
   and its responses read back afterwards (pipelined), a [Timed] request
   is sent alone and its round trip timed (closed loop).  Every stream is
   valid by construction: deletes name live ids, recovers name down
   in-service nodes, leaves and joins respect membership, so the engine
   refuses nothing.  The same seed gives the same script. *)

(* Engine parameters shared by the serve workloads: those of the
   repository's churn and serve benches. *)
let n = 1000
let r = 3
let s = 2
let k = 8

(* Objects created before the timed phase.  Adaptive.add scans linearly
   in the population, so the set-up cost grows quadratically with this
   figure; 10^4 keeps it near 0.3 s and steady. *)
let fill = 10_000

(* Pre-population window: at most this many creates in flight.  Their
   responses (~150 bytes each) stay well inside one 64 KiB pipe buffer,
   so the daemon never blocks on its output while the client writes. *)
let fill_window = 128

(* Requests per ingest window (pipelined), events per monitor burst. *)
let ingest_window = 64
let monitor_burst = 10

(* The rebalance topology: 100 racks of 10 nodes, racks at level 1. *)
let rack_spec = "rack:100/node:10"
let rack_level = 1

type step = Burst of string array | Timed of string

type t = {
  workload : string;
  topology : string option;  (** the daemon's --topology, if any *)
  setup : step array;  (** pre-population, all pipelined *)
  steps : step array;  (** the timed phase, sent in order *)
}

let workloads = [ "monitor"; "ingest"; "rebalance" ]

let lines_of_step = function Burst ls -> Array.to_list ls | Timed l -> [ l ]

(* Every line the daemon receives, in wire order. *)
let lines t =
  List.concat_map lines_of_step (Array.to_list t.setup @ Array.to_list t.steps)

(* The canonical text of a script: wire lines, timed ones prefixed with
   "> " — what the self-tests compare between seeds. *)
let to_string t =
  let b = Buffer.create (1 lsl 16) in
  let add = function
    | Burst ls ->
        Array.iter
          (fun l ->
            Buffer.add_string b l;
            Buffer.add_char b '\n')
          ls
    | Timed l ->
        Buffer.add_string b "> ";
        Buffer.add_string b l;
        Buffer.add_char b '\n'
  in
  Array.iter add t.setup;
  Array.iter add t.steps;
  Buffer.contents b

let fill_steps () =
  Array.init
    ((fill + fill_window - 1) / fill_window)
    (fun w ->
      Burst
        (Array.make (min fill_window (fill - (w * fill_window))) "create"))

(* Live object ids in a dense array with swap-remove, so a uniform pick
   is O(1) and the order is a function of the rng alone. *)
module Live = struct
  type t = { mutable ids : int array; mutable len : int; mutable next : int }

  let create initial =
    { ids = Array.init (max 16 initial) Fun.id; len = initial; next = initial }

  let create_one t =
    if t.len = Array.length t.ids then begin
      let grown = Array.make (2 * t.len) 0 in
      Array.blit t.ids 0 grown 0 t.len;
      t.ids <- grown
    end;
    t.ids.(t.len) <- t.next;
    t.len <- t.len + 1;
    t.next <- t.next + 1

  let delete_random t rng =
    let slot = Combin.Rng.int rng t.len in
    let id = t.ids.(slot) in
    t.len <- t.len - 1;
    t.ids.(slot) <- t.ids.(t.len);
    id
end

(* Collects lines into steps: pending lines become one [Burst] when a
   [Timed] step or a window boundary closes them. *)
module Builder = struct
  type b = { mutable pending : string list; mutable steps : step list }

  let create () = { pending = []; steps = [] }

  let flush b =
    if b.pending <> [] then begin
      b.steps <- Burst (Array.of_list (List.rev b.pending)) :: b.steps;
      b.pending <- []
    end

  let line b l = b.pending <- l :: b.pending
  let timed b l =
    flush b;
    b.steps <- Timed l :: b.steps

  let pending b = List.length b.pending
  let finish b =
    flush b;
    Array.of_list (List.rev b.steps)
end

(* monitor: bursts of [monitor_burst] events of the Event.seeded mix
   (55% create, 15% delete, 15% fail, 15% recover), each followed by one
   closed-loop [query worst]. *)
let monitor ~seed ~cycles =
  let rng = Combin.Rng.create seed in
  let evs =
    Array.of_list
      (Dsim.Event.seeded ~rng ~n ~initial:fill ~count:(monitor_burst * cycles)
         ~measure_every:0 ())
  in
  let b = Builder.create () in
  for c = 0 to cycles - 1 do
    for j = 0 to monitor_burst - 1 do
      Builder.line b (Dsim.Event.to_line evs.((c * monitor_burst) + j))
    done;
    Builder.timed b "query worst"
  done;
  { workload = "monitor"; topology = None; setup = fill_steps ();
    steps = Builder.finish b }

(* ingest: pipelined windows of [ingest_window] requests; events are 75%
   creates and 25% deletes, one create in four is preceded by an
   [advise create], and every 100th event is followed by [query avail].
   Never a [query worst]. *)
let ingest ~seed ~events =
  let rng = Combin.Rng.create seed in
  let live = Live.create fill in
  let b = Builder.create () in
  let line l =
    Builder.line b l;
    if Builder.pending b >= ingest_window then Builder.flush b
  in
  for e = 1 to events do
    if Combin.Rng.int rng 4 = 0 then
      line (Printf.sprintf "delete %d" (Live.delete_random live rng))
    else begin
      if Combin.Rng.int rng 4 = 0 then line "advise create";
      Live.create_one live;
      line "create"
    end;
    if e mod 100 = 0 then line "query avail"
  done;
  { workload = "ingest"; topology = None; setup = fill_steps ();
    steps = Builder.finish b }

(* rebalance: rounds of four creates/deletes (60/40), a join of a
   departed node whenever more than [left_floor] nodes are out, and one
   closed-loop [leave] of a random in-service node.  Every
   [outage_every]-th round a rack outage starts ([fail-domain]) or, if
   one is under way, ends (a [recover] per still-down in-service node of
   the rack). *)
let left_floor = 10
let outage_every = 8

let rebalance ~seed ~rounds =
  let rng = Combin.Rng.create seed in
  let tree = Topology.Spec.parse_exn rack_spec in
  let racks = Topology.Tree.domain_count tree ~level:rack_level in
  let live = Live.create fill in
  let up = Array.make n true and in_service = Array.make n true in
  let left = ref [] and nleft = ref 0 in
  let outage = ref None in
  let b = Builder.create () in
  let line = Builder.line b in
  for round = 1 to rounds do
    for _ = 1 to 4 do
      if Combin.Rng.int rng 5 < 2 then
        line (Printf.sprintf "delete %d" (Live.delete_random live rng))
      else begin
        Live.create_one live;
        line "create"
      end
    done;
    if !nleft > left_floor then begin
      let pick = Combin.Rng.int rng !nleft in
      let nd = List.nth !left pick in
      left := List.filteri (fun i _ -> i <> pick) !left;
      decr nleft;
      in_service.(nd) <- true;
      up.(nd) <- true;
      line (Printf.sprintf "join %d" nd)
    end;
    if round mod outage_every = 0 then begin
      match !outage with
      | None ->
          let d = Combin.Rng.int rng racks in
          Array.iter
            (fun nd -> if in_service.(nd) then up.(nd) <- false)
            (Topology.Tree.members tree ~level:rack_level d);
          line (Printf.sprintf "fail-domain %d %d" rack_level d);
          outage := Some d
      | Some d ->
          Array.iter
            (fun nd ->
              if in_service.(nd) && not up.(nd) then begin
                up.(nd) <- true;
                line (Printf.sprintf "recover %d" nd)
              end)
            (Topology.Tree.members tree ~level:rack_level d);
          outage := None
    end;
    let nd = ref (Combin.Rng.int rng n) in
    while not in_service.(!nd) do nd := Combin.Rng.int rng n done;
    (* A down node that leaves stops counting as failed. *)
    up.(!nd) <- true;
    in_service.(!nd) <- false;
    left := !nd :: !left;
    incr nleft;
    Builder.timed b (Printf.sprintf "leave %d" !nd)
  done;
  { workload = "rebalance"; topology = Some rack_spec; setup = fill_steps ();
    steps = Builder.finish b }

(* The script for [workload]: one repetition's timed work, sized to
   take about half a second (rebalance: 0.6 s) on a 2-core host.  Fixed
   work (rather than "as much as fits in the time") keeps the
   population, and with it every per-request cost and the daemon's
   memory, the same from run to run: only the machine's speed moves the
   figures. *)
let make workload ~seed =
  match workload with
  | "monitor" -> monitor ~seed ~cycles:140
  | "ingest" -> ingest ~seed ~events:9_000
  | "rebalance" -> rebalance ~seed ~rounds:100
  | w -> invalid_arg ("Script.make: not a serve workload: " ^ w)

(* Wall of one whole repetition on a 2-core host: set-up, timed phase,
   the daemon's exit and its share of the run's output check. *)
let rep_seconds = function "rebalance" -> 1.1 | _ -> 0.8

(* Repetitions in a run of [seconds]: as many as fill four fifths of
   it, the rest left as headroom for a slow host. *)
let reps workload ~seconds =
  max 2 (int_of_float (0.8 *. float_of_int seconds /. rep_seconds workload))
