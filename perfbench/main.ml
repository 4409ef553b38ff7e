(* The repository benchmark: three workloads over the two products, each
   driven only through public entry points at library defaults.

   - [txn_contended], [txn_uniform]: one [Commit_service.run] per pass;
   - [mc_crash]: four [Mc_run.run] verdicts per pass.

   [--trace 0] times whole passes and reports the end-to-end metrics.
   The host's speed drifts by up to half over minutes, so every timed
   pass runs right after a stdlib-only reference loop, and times are
   reported scaled to a host of fixed speed (see [reference]).
   [--trace 1] times an untraced baseline, then a traced pass, then
   replays every layer whose work happens inside the entry point: the
   layer's public function is called as many times as the pass reported
   doing that work, so each layer's share of the wall time is measured,
   not guessed. Spans are kept in memory and written to
   [.perfbench/trace-<workload>-<seed>.json] at the end. The last line of
   standard output is one JSON object:
   [{"correct", "attempted", "failed", "metrics"}]. *)

let now = Unix.gettimeofday
let fi = float_of_int
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* the harness keeps its own median: it must not share code with the
   Histogram layer it measures *)
let median = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let k = Array.length a in
      if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.0

(* ---------- metric tables ---------- *)

(* (name, unit, base): every metric a run prints, in print order. The
   end-to-end table is reported on every workload; a per-layer metric of
   a layer the workload bypasses reads 0. *)
let end_to_end =
  [
    ("verdict_s", "s", "seconds per pass, inputs to a checked verdict");
    ("throughput_per_s", "1/s",
     "committed txns (txn) or explored states (mc) per second");
    ("goodput", "ratio",
     "committed / issued txns (txn); states / transitions (mc)");
    ("peak_heap_mb", "MB", "largest major heap of a pass");
    ("setup_s", "s", "seconds per set-up pass");
  ]

let mc_protocols = [ "1nbac"; "(2n-2+f)nbac"; "inbac"; "paxos-commit" ]

(* "(2n-2+f)nbac" -> "2n-2-f-nbac" *)
let slug p =
  let b = Buffer.create (String.length p) in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | '0' .. '9' -> Buffer.add_char b c
      | _ ->
          let l = Buffer.length b in
          if l > 0 && Buffer.nth b (l - 1) <> '-' then Buffer.add_char b '-')
    p;
  let s = Buffer.contents b in
  if s <> "" && s.[String.length s - 1] = '-' then
    String.sub s 0 (String.length s - 1)
  else s

let txn_layer =
  [
    ("admission.queued_per_txn", "ratio", "queued txns per issued txn");
    ("admission.readmits_per_queued", "ratio",
     "queue-depth samples (re-admissions) per queued txn");
    ("admission.local_abort_ratio", "ratio", "local aborts per issued txn");
    ("admission.useful_ratio", "ratio",
     "committed / (committed + protocol aborts), per launched txn");
    ("admission.queue_depth_p99", "txns", "waiting txns, p99 over enqueues");
    ("admission.commit_p50_delays", "delays",
     "commit latency p50 over committed txns, units of U");
    ("admission.commit_p99_delays", "delays",
     "commit latency p99 over committed txns, units of U");
    ("batching.txns_per_instance", "ratio", "txns per commit instance");
    ("batching.peak_in_flight", "count", "most concurrent instances");
    ("batching.commits_per_delay", "1/U",
     "committed txns per simulated U of makespan");
    ("mux.msgs_per_txn", "ratio", "network messages per issued txn");
    ("mux.ns_per_event", "ns/event", "replayed Mux.add + Mux.pop, per event");
    ("mux.share", "share", "replayed Mux time / untraced wall");
    ("workload.ns_per_txn", "ns/txn",
     "replayed Workload.distinct_keys, per txn");
    ("workload.share", "share", "replayed key sampling / untraced wall");
    ("kv.ns_per_write", "ns/write",
     "replayed Kv_store.stage + apply, per write");
    ("kv.share", "share", "replayed KV time / untraced wall");
    ("stats.ns_per_sample", "ns/sample",
     "replayed Histogram.add (+ summary), per sample");
    ("stats.share", "share", "replayed histogram time / untraced wall");
    ("service.wall_s", "s", "untraced wall of one service run, median");
    ("service.minor_words_per_txn", "words/txn",
     "minor words allocated per issued txn");
    ("service.unattributed_share", "share",
     "1 - replayed shares: admission, batching, orchestration");
  ]

(* per-protocol copies carry a slug suffix; the bare name aggregates *)
let mc_layer_one =
  [
    ("enumerate.transitions", "count", "events executed");
    ("enumerate.schedules", "count", "maximal explored paths");
    ("enumerate.sleep_skip_ratio", "ratio",
     "sleep-set skips / (skips + transitions)");
    ("visited.states", "count", "distinct states stored");
    ("visited.dedup_ratio", "ratio",
     "revisits / (revisits + stored states), per state arrival");
    ("visited.peak_occupancy", "count", "largest visited-table occupancy");
    ("canon.calls", "count", "canonicalizations");
    ("canon.orbit_hit_ratio", "ratio",
     "canonicalizations won by a non-identity renaming / calls");
    ("canon.ns_per_call", "ns/call",
     "replayed Mc_run.fingerprint_sampler at defaults, per call");
    ("canon.share", "share", "replayed canonicalization / jobs=1 wall");
    ("scheduler.parallel_efficiency", "ratio",
     "jobs=1 wall / (default-jobs wall x jobs)");
    ("mc.wall_s", "s", "untraced wall to the verdict at default jobs");
    ("mc.minor_words_per_state", "words/state",
     "minor words per state at jobs=1");
    ("mc.unattributed_share", "share",
     "1 - canon - machine: enumerate, visited, snapshot/restore");
  ]

let machine_layer =
  [
    ("machine.msgs_per_instance", "msgs/inst",
     "network messages per commit instance (nice run on mc)");
    ("machine.ns_per_instance", "ns/inst",
     "replayed Registry.run on Scenario.nice, per instance");
    ("machine.share", "share",
     "replayed Registry.run time / untraced wall (jobs=1 wall on mc)");
  ]

let per_layer =
  let per_proto =
    List.concat_map
      (fun p ->
        List.map
          (fun (m, u, b) -> (m ^ "." ^ slug p, u, b ^ " (" ^ p ^ ")"))
          (mc_layer_one @ machine_layer))
      mc_protocols
  in
  txn_layer @ machine_layer
  @ [
      ("trace.overhead_s", "s", "traced pass wall - untraced pass wall");
      ("host.reference_s", "s",
       "wall of the reference loop, median over the untraced passes");
    ]
  @ mc_layer_one @ per_proto

(* ---------- recording ---------- *)

let values : (string, float) Hashtbl.t = Hashtbl.create 256
let set name v = Hashtbl.replace values name v
let attempted = ref 0
let failed = ref 0

(* one checked call of a product entry point *)
let check what failures =
  incr attempted;
  if failures <> [] then begin
    incr failed;
    Printf.eprintf "perfbench: check failed on %s: %s\n%!" what
      (String.concat "; " failures)
  end

let failures_of conds =
  List.filter_map (fun (ok, what) -> if ok then None else Some what) conds

type span = {
  id : int;
  parent : int;
  layer : string;
  calls : int;
  start : float;
  stop : float;
  words : float;
}

let spans = ref []
let next_span = ref 0

(* time [f id], record a span [id] around it, return (result, seconds) *)
let span ?(parent = 0) ~layer ~calls f =
  incr next_span;
  let id = !next_span in
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let r = f id in
  let t1 = now () in
  let words = Gc.minor_words () -. w0 in
  spans := { id; parent; layer; calls; start = t0; stop = t1; words } :: !spans;
  (r, t1 -. t0)

let write_spans path =
  (try Sys.mkdir (Filename.dirname path) 0o755 with Sys_error _ -> ());
  let oc = open_out path in
  let all = List.sort (fun a b -> compare a.start b.start) !spans in
  let origin = match all with [] -> 0.0 | s :: _ -> s.start in
  output_string oc "[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s  {\"id\": %d, \"parent\": %d, \"layer\": %S, \"calls\": %d, \
         \"start_us\": %.1f, \"end_us\": %.1f, \"minor_words\": %.0f}"
        (if i = 0 then "" else ",\n")
        s.id s.parent s.layer s.calls
        ((s.start -. origin) *. 1e6)
        ((s.stop -. origin) *. 1e6)
        s.words)
    all;
  output_string oc "\n]\n";
  close_out oc

(* ---------- host-speed reference ---------- *)

(* A shared host's speed drifts by up to half over minutes, more than a
   metric's regression bound, and it slows allocation-heavy code most.
   So each timed pass is preceded by this loop, and the pass's wall is
   divided by the loop's: a drift slows both alike. The loop uses only
   the stdlib, never the libraries under test, so a change to them cannot
   move it. Its work is shaped like theirs: ordered-map and hash-table
   updates over a 64k key space and short-lived allocation (pure
   arithmetic loops barely feel the drift). It runs on [domains] domains
   at once, one copy each, so a parallel workload is scaled by a parallel
   reference.

   The end-to-end times are scaled to a host on which the reference takes
   [nominal_ref_s] seconds: a pass's wall is multiplied by
   [nominal_ref_s] and divided by the wall of the reference run just
   before it. The raw walls are printed beside them, and the traced run
   reports the reference's own wall as [host.reference_s]. *)
module Ref_map = Map.Make (Int)

let reference_loop () =
  let rng = Random.State.make [| 17 |] in
  let m = ref Ref_map.empty and h = Hashtbl.create 1024 in
  let acc = ref 0 in
  for i = 1 to 250_000 do
    let k = Random.State.int rng 65_536 in
    m := Ref_map.add k i !m;
    if i land 1 = 0 then m := Ref_map.remove (Random.State.int rng 65_536) !m;
    for _ = 1 to 2 do
      let j = Random.State.int rng 65_536 in
      match Hashtbl.find_opt h j with
      | Some l -> acc := !acc + List.length l
      | None -> Hashtbl.replace h j [ i; j ]
    done;
    if i land 3 = 0 then Hashtbl.remove h (Random.State.int rng 65_536)
  done;
  ignore (Sys.opaque_identity (!m, !acc))

(* about its median single-domain wall on a 2-vCPU Xeon VM *)
let nominal_ref_s = 0.7

let reference ~domains =
  Gc.compact ();
  let t0 = now () in
  let others = List.init (domains - 1) (fun _ -> Domain.spawn reference_loop) in
  reference_loop ();
  List.iter Domain.join others;
  now () -. t0

type 'a pass = { result : 'a; wall : float; ref_wall : float; heap_mb : float }

(* [f ()] after a compaction, so every pass starts from the same heap;
   with its wall seconds and the largest major heap seen at the end of
   any major GC cycle it ran (or at its end) *)
let measure f =
  Gc.compact ();
  let peak = ref 0 in
  let sample () = peak := max !peak (Gc.quick_stat ()).Gc.heap_words in
  let alarm = Gc.create_alarm sample in
  let t0 = now () in
  let result = f () in
  let wall = now () -. t0 in
  sample ();
  Gc.delete_alarm alarm;
  { result; wall; ref_wall = nan;
    heap_mb = fi (!peak * (Sys.word_size / 8)) /. 1048576.0 }

(* Passes while another one fits in [seconds] (judged by the last pass's
   wall and its reference loop), at least [min_passes]. Each pass is
   preceded by the reference loop on [domains] domains. *)
let timed ~domains ~seconds ~min_passes pass =
  let t_end = now () +. fi seconds in
  let rec go k last acc =
    if k >= min_passes && now () +. last > t_end then List.rev acc
    else
      let t0 = now () in
      let ref_wall = reference ~domains in
      let p = { (pass ()) with ref_wall } in
      go (k + 1) (now () -. t0) (p :: acc)
  in
  go 0 0.0 []

let median_wall passes = median (List.map (fun p -> p.wall) passes)

let median_ref_wall passes = median (List.map (fun p -> p.ref_wall) passes)

let setup_reps = 9

(* The set-up passes, too short to each run the reference, run between
   two runs of it; the mean of the two scales them. *)
let setup_passes ~domains pass =
  let before = reference ~domains in
  let passes = List.init setup_reps (fun _ -> pass ()) in
  let after = reference ~domains in
  (passes, (before +. after) /. 2.0)

(* [verdict_s]: every timed pass scaled by its own reference; [setup_s]:
   the set-up passes scaled by theirs *)
let set_scaled_times ~setup:(setup, setup_ref) passes =
  let scaled = List.map (fun p -> p.wall *. nominal_ref_s /. p.ref_wall) in
  let verdict = median (scaled passes) in
  set "verdict_s" verdict;
  set "setup_s" (median_wall setup *. nominal_ref_s /. setup_ref);
  verdict

let column f passes =
  String.concat " " (List.map (fun p -> Printf.sprintf "%.3f" (f p)) passes)

let walls passes = column (fun p -> p.wall) passes
let ref_walls passes = column (fun p -> p.ref_wall) passes
let heaps passes = column (fun p -> p.heap_mb) passes

(* ---------- txn workloads ---------- *)

type txn_workload = {
  protocol : string;
  n : int;
  f : int;
  clients : int;
  txns : int;
  zipf_s : float;
  keys : int;
  reads : int;
  writes : int;
}

let txn_contended =
  {
    protocol = "2pc";
    n = 4;
    f = 1;
    clients = 1000;
    txns = 20_000;
    zipf_s = 0.8;
    keys = 2048;
    reads = 2;
    writes = 2;
  }

let txn_uniform =
  {
    protocol = "inbac";
    n = 5;
    f = 2;
    clients = 128;
    txns = 60_000;
    zipf_s = 0.0;
    keys = 65_536;
    reads = 0;
    writes = 2;
  }

let describe_txn w =
  Printf.sprintf
    "%s n=%d f=%d, closed loop: %d clients, %d txns, zipf %.1f over %d keys, \
     %d reads + %d writes"
    w.protocol w.n w.f w.clients w.txns w.zipf_s w.keys w.reads w.writes

(* the generated input: the only thing the service receives *)
let txn_spec w ~seed ~txns =
  {
    Commit_service.default with
    clients = w.clients;
    txns;
    keys = w.keys;
    zipf_s = Some w.zipf_s;
    reads_per_txn = w.reads;
    writes_per_txn = w.writes;
    seed;
  }

let txn_failures w ~txns (s : Commit_service.stats) =
  let entry = Complexity.find_exn w.protocol in
  let per = entry.Complexity.messages ~n:w.n ~f:w.f in
  failures_of
    [
      (s.transactions = txns, "issued count");
      (s.atomicity_ok, "atomicity");
      (s.agreement_ok, "agreement");
      (s.parked = 0, Printf.sprintf "%d parked" s.parked);
      (s.staged_left = 0, Printf.sprintf "%d staged writes left" s.staged_left);
      ( s.committed + s.aborted + s.local_aborts = s.transactions,
        "decision accounting" );
      ( s.total_messages = s.instances * per,
        Printf.sprintf "%d messages <> %d instances x %d" s.total_messages
          s.instances per );
    ]

let run_service w spec =
  Commit_service.run ~protocol:w.protocol ~n:w.n ~f:w.f spec

let txn_pass w ~seed ~txns () =
  let spec = txn_spec w ~seed ~txns in
  let p = measure (fun () -> run_service w spec) in
  check w.protocol (txn_failures w ~txns p.result);
  p

let txn_setup w ~seed = txn_pass w ~seed ~txns:(w.txns / 20)

let txn_untraced w ~seed ~seconds =
  let setup = setup_passes ~domains:1 (txn_setup w ~seed) in
  let passes =
    timed ~domains:1 ~seconds ~min_passes:3 (txn_pass w ~seed ~txns:w.txns)
  in
  let s = (List.hd passes).result in
  let verdict = set_scaled_times ~setup passes in
  set "throughput_per_s" (fi s.committed /. verdict);
  set "goodput" s.goodput;
  set "peak_heap_mb" (median (List.map (fun p -> p.heap_mb) passes));
  Printf.sprintf
    "per timed pass — wall (s): %s; reference loop (s): %s; peak heap \
     (MB): %s; set-up pass walls (s): %s, their reference %.3f"
    (walls passes) (ref_walls passes) (heaps passes) (walls (fst setup))
    (snd setup)

(* Replays of the layers that run inside [Commit_service.run]. Inputs are
   prepared outside the spans, so each span times only the layer's own
   public function. *)

let replay_machine ~parent ~protocol ~n ~f ~calls =
  let reg = Registry.find_exn protocol in
  let sc = Scenario.nice ~n ~f () in
  let (), t =
    span ~parent ~layer:"machine" ~calls (fun _ ->
        for _ = 1 to calls do
          ignore (Sys.opaque_identity (reg.Registry.run sc))
        done)
  in
  t

let replay_mux ~parent ~events ~live =
  let q : unit Mux.t = Mux.create () in
  let tags = Array.init (max 1 live) (fun _ -> Mux.alloc q) in
  let rng = Rng.create 7 in
  let u = Sim_time.default_u in
  for i = 0 to max 1 live - 1 do
    Mux.add q ~instance:tags.(i) ~time:(Rng.int rng ~bound:u) ~klass:1 ()
  done;
  let delays = Array.init 4096 (fun _ -> 1 + Rng.int rng ~bound:u) in
  let (), t =
    span ~parent ~layer:"mux" ~calls:events (fun _ ->
        for i = 1 to events do
          match Mux.pop q with
          | Some (time, _, inst, ()) ->
              Mux.add q ~instance:inst
                ~time:(time + delays.(i land 4095))
                ~klass:1 ()
          | None -> ()
        done)
  in
  t

let replay_workload ~parent w ~seed ~calls =
  let dist = Workload.Zipf.make ~keys:w.keys ~s:w.zipf_s in
  let rng = Rng.create seed in
  let count = w.reads + w.writes in
  let (), t =
    span ~parent ~layer:"workload" ~calls (fun _ ->
        for _ = 1 to calls do
          ignore (Sys.opaque_identity (Workload.distinct_keys ~dist ~count rng))
        done)
  in
  t

let replay_kv ~parent w ~txns =
  let stores = Array.init w.n (fun _ -> Kv_store.create ()) in
  let rng = Rng.create 5 in
  let ids = Array.init txns (fun i -> "t" ^ string_of_int i) in
  let writes =
    Array.init txns (fun i ->
        List.init w.writes (fun _ ->
            ("k" ^ string_of_int (Rng.int rng ~bound:w.keys), ids.(i))))
  in
  let (), t =
    span ~parent ~layer:"kv" ~calls:(txns * w.writes) (fun _ ->
        for i = 0 to txns - 1 do
          let st = stores.(i mod w.n) in
          Kv_store.stage st ~txn_id:ids.(i) ~writes:writes.(i);
          ignore (Kv_store.apply st ~txn_id:ids.(i))
        done)
  in
  t

let replay_stats ~parent ~samples =
  let (), t =
    span ~parent ~layer:"stats" ~calls:samples (fun _ ->
        let h = Histogram.create () in
        for i = 1 to samples do
          Histogram.add h (fi (i land 1023))
        done;
        ignore (Sys.opaque_identity (Histogram.summary h)))
  in
  t

let txn_traced w ~seed ~seconds =
  ignore (txn_setup w ~seed ());
  let base =
    timed ~domains:1 ~seconds:(seconds / 2) ~min_passes:1
      (txn_pass w ~seed ~txns:w.txns)
  in
  let wall = median_wall base in
  set "service.wall_s" wall;
  set "host.reference_s" (median_ref_wall base);
  let spec = txn_spec w ~seed ~txns:w.txns in
  Gc.compact ();
  let s, _ =
    span ~layer:"pass" ~calls:1 (fun root ->
        let (s : Commit_service.stats), traced =
          span ~parent:root ~layer:"service" ~calls:1 (fun _ ->
              run_service w spec)
        in
        check w.protocol (txn_failures w ~txns:w.txns s);
        set "trace.overhead_s" (traced -. wall);
        let instances = s.instances + s.retries + s.elections in
        let t_machine =
          replay_machine ~parent:root ~protocol:w.protocol ~n:w.n ~f:w.f
            ~calls:instances
        in
        let per_inst = ratio (fi s.total_messages) (fi s.instances) in
        let t_mux =
          replay_mux ~parent:root ~events:s.total_messages
            ~live:(int_of_float (fi s.peak_in_flight *. per_inst))
        in
        let t_workload =
          replay_workload ~parent:root w ~seed ~calls:s.transactions
        in
        let launched = s.transactions - s.local_aborts in
        let t_kv = replay_kv ~parent:root w ~txns:launched in
        let samples =
          s.latency.count + s.queue_depth.count + s.time_parked.count
        in
        let t_stats = replay_stats ~parent:root ~samples in
        let txns = fi s.transactions in
        let share t = t /. wall in
        let ns t k = ratio (t *. 1e9) (fi k) in
        set "admission.queued_per_txn" (fi s.queued /. txns);
        set "admission.readmits_per_queued"
          (ratio (fi s.queue_depth.count) (fi s.queued));
        set "admission.local_abort_ratio" (fi s.local_aborts /. txns);
        set "admission.useful_ratio"
          (ratio (fi s.committed) (fi (s.committed + s.aborted)));
        set "admission.queue_depth_p99"
          (if s.queue_depth.count = 0 then 0.0 else s.queue_depth.p99);
        set "admission.commit_p50_delays" s.latency.p50;
        set "admission.commit_p99_delays" s.latency.p99;
        set "batching.txns_per_instance" s.mean_batch;
        set "batching.peak_in_flight" (fi s.peak_in_flight);
        set "batching.commits_per_delay"
          (ratio (fi s.committed) s.makespan_delays);
        set "mux.msgs_per_txn" (fi s.total_messages /. txns);
        set "mux.ns_per_event" (ns t_mux s.total_messages);
        set "mux.share" (share t_mux);
        set "machine.msgs_per_instance" per_inst;
        set "machine.ns_per_instance" (ns t_machine instances);
        set "machine.share" (share t_machine);
        set "workload.ns_per_txn" (ns t_workload s.transactions);
        set "workload.share" (share t_workload);
        set "kv.ns_per_write" (ns t_kv (launched * w.writes));
        set "kv.share" (share t_kv);
        set "stats.ns_per_sample" (ns t_stats samples);
        set "stats.share" (share t_stats);
        set "service.minor_words_per_txn" s.minor_words_per_txn;
        (* not clamped: a negative value is the replays' overshoot *)
        set "service.unattributed_share"
          (1.0
          -. share (t_machine +. t_mux +. t_workload +. t_kv +. t_stats));
        s)
  in
  Printf.sprintf
    "untraced baseline: median of %d passes (%.3f s); traced pass: %d \
     instances, %d messages, goodput %.3f, commits/U %.3f, latency p50/p99 \
     %.2f/%.2f U"
    (List.length base) wall s.instances s.total_messages s.goodput
    (ratio (fi s.committed) s.makespan_delays)
    s.latency.p50 s.latency.p99

(* ---------- mc workload ---------- *)

let mc_n = 4
let mc_f = 1

let mc_verdict ?jobs ~klass p =
  Mc_run.run ?jobs ~protocol:p ~n:mc_n ~f:mc_f ~klass ()

let mc_check (o : Mc_run.outcome) =
  let v = Mc_run.verdict_string o in
  check o.protocol
    (failures_of [ (v = "ok (exhausted)", "verdict " ^ v) ])

(* one pass: every protocol's verdict, each with its wall seconds *)
let mc_pass ~klass () =
  let p =
    measure (fun () ->
        List.map
          (fun proto ->
            let t0 = now () in
            let o = mc_verdict ~klass proto in
            (o, now () -. t0))
          mc_protocols)
  in
  List.iter (fun (o, _) -> mc_check o) p.result;
  p

(* set-up: each protocol's nice-class verdict, the checker's smoke pass *)
let mc_setup () = mc_pass ~klass:Mc_run.Nice ()

let sum_counter pass get =
  List.fold_left
    (fun a ((o : Mc_run.outcome), _) -> a + get o.counters)
    0 pass.result

let mc_untraced ~seconds =
  let setup = setup_passes ~domains:(Batch.default_jobs ()) mc_setup in
  let passes =
    timed ~domains:(Batch.default_jobs ()) ~seconds ~min_passes:3
      (mc_pass ~klass:Mc_run.Crash)
  in
  let first = List.hd passes in
  let states = sum_counter first (fun c -> c.Mc_limits.states) in
  let transitions = sum_counter first (fun c -> c.Mc_limits.transitions) in
  let verdict = set_scaled_times ~setup passes in
  set "throughput_per_s" (fi states /. verdict);
  set "goodput" (ratio (fi states) (fi transitions));
  set "peak_heap_mb" (median (List.map (fun p -> p.heap_mb) passes));
  Printf.sprintf
    "per timed pass — wall (s): %s; reference loop (s): %s; peak heap \
     (MB): %s; set-up pass walls (s): %s, their reference %.3f; jobs %d"
    (walls passes) (ref_walls passes) (heaps passes) (walls (fst setup))
    (snd setup)
    (Batch.default_jobs ())

type mc_row = {
  counters : Mc_limits.counters;
  wall : float;  (** untraced, default jobs *)
  wall1 : float;  (** jobs=1 *)
  words : float;  (** minor words at jobs=1 *)
  t_canon : float;
  t_machine : float;
  machine_calls : int;
  nice_msgs : int;
}

let mc_metrics ~suffix ~jobs rows =
  let sum get = List.fold_left (fun a r -> a +. get r) 0.0 rows in
  let c get = sum (fun r -> fi (get r.counters)) in
  let transitions = c (fun c -> c.Mc_limits.transitions) in
  let states = c (fun c -> c.Mc_limits.states) in
  let sleep = c (fun c -> c.Mc_limits.sleep_skips) in
  let dedup = c (fun c -> c.Mc_limits.dedup_hits) in
  let calls = c (fun c -> c.Mc_limits.canon_calls) in
  let wall = sum (fun r -> r.wall) and wall1 = sum (fun r -> r.wall1) in
  let t_canon = sum (fun r -> r.t_canon) in
  let t_machine = sum (fun r -> r.t_machine) in
  let m name v = set (name ^ suffix) v in
  m "enumerate.transitions" transitions;
  m "enumerate.schedules" (c (fun c -> c.Mc_limits.schedules));
  m "enumerate.sleep_skip_ratio" (ratio sleep (sleep +. transitions));
  m "visited.states" states;
  m "visited.dedup_ratio" (ratio dedup (dedup +. states));
  m "visited.peak_occupancy"
    (List.fold_left
       (fun a r -> Float.max a (fi r.counters.Mc_limits.peak_visited))
       0.0 rows);
  m "canon.calls" calls;
  m "canon.orbit_hit_ratio"
    (ratio (c (fun c -> c.Mc_limits.orbit_hits)) calls);
  m "canon.ns_per_call" (ratio (t_canon *. 1e9) calls);
  m "canon.share" (ratio t_canon wall1);
  m "machine.msgs_per_instance"
    (ratio (sum (fun r -> fi (r.nice_msgs * r.machine_calls)))
       (sum (fun r -> fi r.machine_calls)));
  m "machine.ns_per_instance"
    (ratio (t_machine *. 1e9) (sum (fun r -> fi r.machine_calls)));
  m "machine.share" (ratio t_machine wall1);
  m "scheduler.parallel_efficiency" (ratio wall1 (wall *. fi jobs));
  m "mc.wall_s" wall;
  m "mc.minor_words_per_state" (ratio (sum (fun r -> r.words)) states);
  (* not clamped: a negative value is the replays' overshoot *)
  m "mc.unattributed_share" (1.0 -. ratio (t_canon +. t_machine) wall1)

(* one protocol's traced jobs=1 verdict and its replays *)
let mc_trace_protocol ~root ~wall p =
  let (o : Mc_run.outcome), wall1 =
    span ~parent:root ~layer:"mc.jobs1" ~calls:1 (fun _ ->
        mc_verdict ~jobs:1 ~klass:Mc_run.Crash p)
  in
  let words = (List.hd !spans).words (* the span just recorded *) in
  mc_check o;
  let cs = o.counters in
  let calls = cs.Mc_limits.canon_calls in
  let t_canon =
    if calls = 0 then 0.0
    else
      let probe =
        Mc_run.fingerprint_sampler ~protocol:p ~n:mc_n ~f:mc_f
          ~klass:Mc_run.Crash ()
      in
      snd
        (span ~parent:root ~layer:"canon" ~calls (fun _ ->
             probe Mc_limits.default_fp calls))
  in
  (* a nice run executes [msgs + n] machine events: replay as many runs
     as cover the exploration's transitions *)
  let reg = Registry.find_exn p in
  let nice = reg.Registry.run (Scenario.nice ~n:mc_n ~f:mc_f ()) in
  let nice_msgs = Report.total_messages nice in
  let per_run = nice_msgs + mc_n in
  let machine_calls = (cs.Mc_limits.transitions + per_run - 1) / per_run in
  let t_machine =
    replay_machine ~parent:root ~protocol:p ~n:mc_n ~f:mc_f
      ~calls:machine_calls
  in
  { counters = cs; wall; wall1; words; t_canon; t_machine; machine_calls;
    nice_msgs }

let mc_traced ~seconds =
  ignore (mc_setup ());
  let jobs = Batch.default_jobs () in
  let base =
    timed ~domains:jobs ~seconds:(seconds / 2) ~min_passes:1
      (mc_pass ~klass:Mc_run.Crash)
  in
  set "host.reference_s" (median_ref_wall base);
  let wall_of p =
    median
      (List.map
         (fun pass ->
           snd
             (List.find
                (fun ((o : Mc_run.outcome), _) -> o.protocol = p)
                pass.result))
         base)
  in
  Gc.compact ();
  let rows, _ =
    span ~layer:"pass" ~calls:1 (fun root ->
        let overhead =
          List.fold_left
            (fun acc p ->
              let o, t =
                span ~parent:root ~layer:"mc" ~calls:1 (fun _ ->
                    mc_verdict ~klass:Mc_run.Crash p)
              in
              mc_check o;
              acc +. t -. wall_of p)
            0.0 mc_protocols
        in
        set "trace.overhead_s" overhead;
        List.map
          (fun p ->
            let row = mc_trace_protocol ~root ~wall:(wall_of p) p in
            mc_metrics ~suffix:("." ^ slug p) ~jobs [ row ];
            row)
          mc_protocols)
  in
  mc_metrics ~suffix:"" ~jobs rows;
  Printf.sprintf
    "untraced baseline: median of %d passes (jobs %d); traced passes at jobs \
     %d and 1"
    (List.length base) jobs jobs

(* ---------- output ---------- *)

let workloads =
  [
    ("txn_contended", `Txn txn_contended);
    ("txn_uniform", `Txn txn_uniform);
    ("mc_crash", `Mc);
  ]

let describe = function
  | `Txn w -> describe_txn w
  | `Mc ->
      Printf.sprintf "crash class, n=%d f=%d, default budgets and jobs: %s"
        mc_n mc_f (String.concat ", " mc_protocols)

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let report ~table =
  List.iter
    (fun (name, unit, base) ->
      let v = Option.value (Hashtbl.find_opt values name) ~default:0.0 in
      Printf.printf "  %-42s %14.6g %-11s %s\n" name v unit base)
    table;
  let fields =
    List.map
      (fun (name, unit, _) ->
        let v = Option.value (Hashtbl.find_opt values name) ~default:0.0 in
        let v = if Float.is_finite v then v else 0.0 in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v) unit)
      table
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!failed = 0) !attempted !failed
    (String.concat ", " fields)

let () =
  let workload = ref "" and seed = ref 11 and seconds = ref 40 in
  let trace = ref 0 in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME txn_contended | txn_uniform | mc_crash" );
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or traced per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  match List.assoc_opt !workload workloads with
  | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload);
      exit 2
  | Some w ->
      let traced = !trace = 1 in
      Printf.printf "== %s, seed %d, %s\n   %s\n%!" !workload !seed
        (if traced then "traced per-layer run" else "end-to-end run")
        (describe w);
      let seconds = max 1 !seconds in
      let how =
        match (w, traced) with
        | `Txn w, false -> txn_untraced w ~seed:!seed ~seconds
        | `Txn w, true -> txn_traced w ~seed:!seed ~seconds
        | `Mc, false -> mc_untraced ~seconds
        | `Mc, true -> mc_traced ~seconds
      in
      Printf.printf "   %s; %d checked calls, %d failed\n" how !attempted
        !failed;
      if traced then
        write_spans
          (Printf.sprintf ".perfbench/trace-%s-%d.json" !workload !seed);
      report ~table:(if traced then per_layer else end_to_end);
      exit (if !failed = 0 then 0 else 1)
