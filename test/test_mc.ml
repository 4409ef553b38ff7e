(* Tests for ac_mc: cross-validation of the checker's canonical schedule
   against the engine, the L1 witnesses it must rediscover, counter
   determinism across domain counts, and the pruning ratio. *)

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let find_decision ds p =
  List.find_map (fun (q, d) -> if Pid.equal p q then Some d else None) ds

(* ------------------------------------------------------------------ *)
(* Canonical-schedule cross-validation: the checker's engine-ordered
   synchronous schedule must agree with [Engine.run] on [Scenario.nice]
   in every decision and in both per-layer message counts, for every
   registered protocol. A divergence means the interpreter the explorer
   branches from is not the semantics the engine executes. *)

let cross_validate protocol () =
  let n = 3 and f = 1 in
  let c = Mc_run.canonical ~protocol ~n ~f () in
  let report =
    (Registry.find_exn protocol).Registry.run (Scenario.nice ~n ~f ())
  in
  List.iter
    (fun p ->
      let mc_d = find_decision c.Mc_run.decisions p in
      let engine_d = Option.map snd (Report.decision_of report p) in
      check tbool
        (Printf.sprintf "%s: %s decides the same" protocol (Pid.to_string p))
        true
        (match (mc_d, engine_d) with
        | Some a, Some b -> Vote.decision_equal a b
        | None, None -> true
        | _ -> false))
    (Pid.all ~n);
  check tint
    (Printf.sprintf "%s: commit-layer messages" protocol)
    (Report.commit_messages report)
    c.Mc_run.commit_msgs;
  check tint
    (Printf.sprintf "%s: consensus-layer messages" protocol)
    (Report.consensus_messages report)
    c.Mc_run.cons_msgs

let cross_validation_tests =
  List.map
    (fun p -> Alcotest.test_case p `Quick (cross_validate p))
    Registry.names

(* ------------------------------------------------------------------ *)
(* The L1 witnesses, rediscovered by exhaustive search *)

let run ?budgets ~protocol ~klass () =
  Mc_run.run ?budgets ~protocol ~n:3 ~f:1 ~klass ()

let test_2pc_blocks_on_crash () =
  let o = run ~protocol:"2pc" ~klass:Mc_run.Crash () in
  check tbool "termination violation found" true
    (match o.Mc_run.violation with
    | Some v -> v.Mc_replay.property = Mc_replay.Termination
    | None -> false);
  check tbool "engine replays it" true (o.Mc_run.replay_verified = Some true);
  check tbool "the witness crashes someone" true
    (match o.Mc_run.violation with
    | Some v -> v.Mc_replay.witness.Mc_replay.crashes <> []
    | None -> false)

let test_undershoot_crash_disagreement () =
  (* found by the checker: at f=1 the undershoot's ack list is empty, so
     one crash splits the decision — no network failure needed *)
  let o = run ~protocol:"inbac-undershoot" ~klass:Mc_run.Crash () in
  check tbool "agreement violation found" true
    (match o.Mc_run.violation with
    | Some v -> v.Mc_replay.property = Mc_replay.Agreement
    | None -> false);
  check tbool "engine replays it" true (o.Mc_run.replay_verified = Some true)

let test_inbac_crash_clean () =
  let o = run ~protocol:"inbac" ~klass:Mc_run.Crash () in
  check tbool "no violation" true (Mc_run.clean o);
  check tbool "space exhausted" true (Mc_limits.exhausted o.Mc_run.counters)

let test_3pc_crash_clean () =
  let o = run ~protocol:"3pc" ~klass:Mc_run.Crash () in
  check tbool "no violation" true (Mc_run.clean o);
  check tbool "space exhausted" true (Mc_limits.exhausted o.Mc_run.counters)

(* ------------------------------------------------------------------ *)
(* Determinism and pruning *)

(* Per-item visited tables make every counter independent of how the
   frontier items land on domains. Pinned at jobs 1/2/4 for protocols
   whose vote-refined group at n=3 is trivial (inbac, (2n-2+f)nbac) and
   for one that canonicalizes (1nbac), so the cursor path is covered
   with and without canonicalization. *)
let test_counters_jobs_independent () =
  List.iter
    (fun (protocol, canonicalizes) ->
      let at jobs =
        (Mc_run.run ~jobs ~protocol ~n:3 ~f:1 ~klass:Mc_run.Crash ())
          .Mc_run.counters
      in
      let a = at 1 in
      check tbool
        (protocol ^ " canonicalizes")
        canonicalizes
        (a.Mc_limits.canon_calls > 0);
      List.iter
        (fun jobs ->
          let b = at jobs in
          let eq what x y =
            check tint (Printf.sprintf "%s %s jobs %d" protocol what jobs) x y
          in
          eq "states" a.Mc_limits.states b.Mc_limits.states;
          eq "transitions" a.Mc_limits.transitions b.Mc_limits.transitions;
          eq "schedules" a.Mc_limits.schedules b.Mc_limits.schedules;
          eq "sleep skips" a.Mc_limits.sleep_skips b.Mc_limits.sleep_skips;
          eq "dedup hits" a.Mc_limits.dedup_hits b.Mc_limits.dedup_hits;
          eq "canon calls" a.Mc_limits.canon_calls b.Mc_limits.canon_calls;
          eq "orbit hits" a.Mc_limits.orbit_hits b.Mc_limits.orbit_hits)
        [ 2; 4 ])
    [ ("inbac", false); ("(2n-2+f)nbac", false); ("1nbac", true) ]

let test_witness_deterministic () =
  let witness () =
    match
      (run ~protocol:"2pc" ~klass:Mc_run.Crash ()).Mc_run.violation
    with
    | Some v -> v.Mc_replay.witness.Mc_replay.schedule
    | None -> []
  in
  check (Alcotest.list Alcotest.string) "same shrunk schedule" (witness ())
    (witness ())

(* ------------------------------------------------------------------ *)
(* Fingerprint soundness. The hashed backend replaces marshal-byte
   equality, so it must (a) give independently rebuilt but structurally
   equal checker states equal digests, (b) change the digest whenever a
   vote, a protocol phase, or the pending-message set changes, and
   (c) drive the exploration to exactly the counters the Marshal backend
   produces. *)

module Fp_suite
    (Name : sig
      val name : string
    end)
    (P : Proto.PROTOCOL)
    (C : Proto.CONSENSUS) =
struct
  module E = Mc_explore.Make (P) (C)

  let cfg ?(klass = { E.allow_crashes = true; allow_late = false }) votes =
    {
      E.n = 3;
      f = 1;
      u = Sim_time.default_u;
      votes;
      klass;
      budgets = Mc_limits.default_budgets ~u:Sim_time.default_u;
      fp = Mc_limits.Fp_hashed;
      (* the suite exercises [fingerprint_hashed] directly, so the
         canonicalization layer stays out of the way *)
      symmetry = false;
    }

  let all_yes = [| Vote.yes; Vote.yes; Vote.yes |]
  let one_no = [| Vote.yes; Vote.no; Vote.yes |]

  (* A fresh context advanced [k] transitions along the deterministic
     first-candidate schedule: two calls build structurally equal states
     through entirely separate machines, sinks and intern tables. *)
  let ctx_at votes k =
    let ctx = E.create_ctx (cfg votes) in
    ignore (E.exec_step ctx E.S_proposals);
    (try
       for _ = 1 to k do
         match E.enumerate ctx with
         | [] -> raise Exit
         | c :: _ -> ignore (E.exec_step ctx c)
       done
     with Exit -> ());
    ctx

  let prop_equal_states_equal_digest =
    QCheck.Test.make ~count:30
      ~name:(Name.name ^ ": independently rebuilt equal states hash equal")
      QCheck.(int_range 0 12)
      (fun k ->
        Fingerprint.equal
          (E.fingerprint_hashed (ctx_at all_yes k))
          (E.fingerprint_hashed (ctx_at all_yes k)))

  let prop_step_changes_digest =
    QCheck.Test.make ~count:30
      ~name:
        (Name.name
       ^ ": a step (phase / message-set change) changes the digest")
      QCheck.(int_range 0 8)
      (fun k ->
        let ctx = ctx_at all_yes k in
        let before = E.fingerprint_hashed ctx in
        match E.enumerate ctx with
        | [] -> true (* terminal: nothing left to mutate *)
        | c :: _ ->
            ignore (E.exec_step ctx c);
            not (Fingerprint.equal before (E.fingerprint_hashed ctx)))

  let test_vote_mutation () =
    check tbool "flipping one vote changes the digest" true
      (not
         (Fingerprint.equal
            (E.fingerprint_hashed (ctx_at all_yes 0))
            (E.fingerprint_hashed (ctx_at one_no 0))))

  (* Snapshot round trip: a context driven through a random schedule,
     with save / excursion / restore detours before steps. The excursion
     executes a sibling candidate, so the restore always has dirty state
     to rewind; after it the digest and the rendered trace must equal
     the ones taken just before [save]. *)
  let snapshot_roundtrip_prop ~label klass =
    QCheck.Test.make ~count:25
      ~name:(Name.name ^ ": " ^ label ^ " excursions undone")
      QCheck.(pair (list_of_size Gen.(int_range 1 20) (int_range 0 1000)) bool)
      (fun (choices, excursions) ->
        let ctx = E.create_ctx (cfg ~klass all_yes) in
        let render () = Format.asprintf "%a" Trace.pp (E.M.trace ctx.E.m) in
        ignore (E.exec_step ctx E.S_proposals);
        List.for_all
          (fun c ->
            let cands = E.enumerate ctx in
            let len = List.length cands in
            len = 0
            ||
            let i = c mod len in
            let undone =
              (not excursions) || len < 2
              ||
              let fp = E.fingerprint_hashed ctx and trace = render () in
              let s = E.save ctx in
              ignore (E.exec_step ctx (List.nth cands ((i + 1) mod len)));
              E.restore ctx s;
              Fingerprint.equal fp (E.fingerprint_hashed ctx)
              && String.equal trace (render ())
            in
            ignore (E.exec_step ctx (List.nth cands i));
            undone)
          choices)

  let prop_roundtrip_crash =
    snapshot_roundtrip_prop ~label:"crash"
      { E.allow_crashes = true; allow_late = false }

  let prop_roundtrip_network =
    snapshot_roundtrip_prop ~label:"network"
      { E.allow_crashes = false; allow_late = true }

  (* Nested snapshots stay independent, as the DFS uses them: the inner
     [s2] restores its own capture point every time it is restored, and
     the outer [s1] is untouched by everything done under [s2]. *)
  let test_nested_snapshots () =
    let ctx = E.create_ctx (cfg all_yes) in
    ignore (E.exec_step ctx E.S_proposals);
    let step () =
      match E.enumerate ctx with
      | [] -> ()
      | c :: _ -> ignore (E.exec_step ctx c)
    in
    let s1 = E.save ctx in
    let fp1 = E.fingerprint_hashed ctx in
    step ();
    step ();
    let s2 = E.save ctx in
    let fp2 = E.fingerprint_hashed ctx in
    step ();
    E.restore ctx s2;
    check tbool "s2 restores its capture point" true
      (Fingerprint.equal fp2 (E.fingerprint_hashed ctx));
    step ();
    step ();
    E.restore ctx s2;
    check tbool "s2 restores its capture point again" true
      (Fingerprint.equal fp2 (E.fingerprint_hashed ctx));
    E.restore ctx s1;
    check tbool "s1 restores its capture point" true
      (Fingerprint.equal fp1 (E.fingerprint_hashed ctx))

  let tests =
    [
      QCheck_alcotest.to_alcotest prop_equal_states_equal_digest;
      QCheck_alcotest.to_alcotest prop_step_changes_digest;
      Alcotest.test_case (Name.name ^ ": vote mutation") `Quick
        test_vote_mutation;
    ]

  let snapshot_tests =
    [
      QCheck_alcotest.to_alcotest prop_roundtrip_crash;
      QCheck_alcotest.to_alcotest prop_roundtrip_network;
      Alcotest.test_case (Name.name ^ ": nested snapshots")
        `Quick test_nested_snapshots;
    ]
end

module Fp_inbac =
  Fp_suite
    (struct
      let name = "inbac"
    end)
    (Inbac)
    (Consensus_paxos)

module Fp_2pc =
  Fp_suite
    (struct
      let name = "2pc"
    end)
    (Two_pc)
    (Consensus_null)

let test_backends_agree protocol () =
  (* symmetry canonicalization only exists on the hashed backend, so the
     hashed-vs-marshal counter identity is pinned with it off *)
  let at fp =
    (Mc_run.run ~fp ~symmetry:false ~jobs:1 ~protocol ~n:3 ~f:1
       ~klass:Mc_run.Crash ())
      .Mc_run.counters
  in
  let a = at Mc_limits.Fp_hashed and b = at Mc_limits.Fp_marshal in
  check tint "states" a.Mc_limits.states b.Mc_limits.states;
  check tint "transitions" a.Mc_limits.transitions b.Mc_limits.transitions;
  check tint "schedules" a.Mc_limits.schedules b.Mc_limits.schedules;
  check tint "terminals" a.Mc_limits.terminals b.Mc_limits.terminals;
  check tint "horizon cuts" a.Mc_limits.horizon_cuts b.Mc_limits.horizon_cuts;
  check tint "depth cuts" a.Mc_limits.depth_cuts b.Mc_limits.depth_cuts;
  check tint "dedup hits" a.Mc_limits.dedup_hits b.Mc_limits.dedup_hits;
  check tint "sleep skips" a.Mc_limits.sleep_skips b.Mc_limits.sleep_skips;
  check tint "peak visited" a.Mc_limits.peak_visited b.Mc_limits.peak_visited

(* ------------------------------------------------------------------ *)
(* Frontier scheduling: the structural-progress fix and mctable
   byte-determinism across job counts. *)

(* Regression for the frontier fixed-point bug: the root expansion
   [[]] -> [[S_proposals]] is a 1 -> 1 round, which the old
   equal-length check mistook for a fixed point — every crash-free
   exploration ran as a single frontier item, with no parallelism. *)
let test_frontier_nice_regression () =
  let cfg =
    {
      Fp_inbac.E.n = 3;
      f = 1;
      u = Sim_time.default_u;
      votes = Fp_inbac.all_yes;
      klass = { Fp_inbac.E.allow_crashes = false; allow_late = false };
      budgets = Mc_limits.default_budgets ~u:Sim_time.default_u;
      fp = Mc_limits.Fp_hashed;
      symmetry = false;
    }
  in
  let items = Fp_inbac.E.frontier cfg in
  check tbool
    (Printf.sprintf "nice-class frontier splits (%d items)"
       (List.length items))
    true
    (List.length items > 1)

(* The deterministic contract, end to end: the rendered mctable — the
   user-facing artifact — must be byte-identical across job counts.
   Restricted to two protocols and the crash class to stay test-sized. *)
let test_mctable_bytes_across_jobs () =
  let render jobs =
    Table_mc.render ~protocols:[ "inbac"; "2pc" ] ~classes:[ Mc_run.Crash ]
      ~jobs ~n:3 ~f:1 ()
  in
  let j1 = render 1 in
  check Alcotest.string "jobs 1 = jobs 2" j1 (render 2);
  check Alcotest.string "jobs 1 = jobs 8" j1 (render 8)

(* ------------------------------------------------------------------ *)
(* Symmetry reduction: canonicalization must be invisible in verdicts. *)

let violation_property o =
  Option.map
    (fun (v : Mc_replay.violation) ->
      Mc_replay.property_name v.Mc_replay.property)
    o.Mc_run.violation

(* Differential contract, property-tested over budget shapes and vote
   vectors: symmetry-on and symmetry-off must reach the same verdict
   (same violated property, or both clean) with the same
   counterexample-replay outcome, and when the off arm exhausts a clean
   space the on arm must exhaust it too, inside the off arm's state
   envelope — canonicalization merges orbits, it never drops an
   equivalence class. Randomizing the vote vector exercises the
   vote-refinement of the permutation group (unequal votes split the
   process classes). *)
let symmetry_differential ~protocol ~klass =
  let name =
    Printf.sprintf "symmetry %s/%s verdict = plain (any budgets/votes)"
      protocol
      (Mc_run.class_name klass)
  in
  let u = Sim_time.default_u in
  QCheck.Test.make ~count:4 ~name
    QCheck.(
      triple (int_range 1 2) (int_range 1 2)
        (array_of_size (Gen.return 4) bool))
    (fun (late, hor, yeas) ->
      (* network classes stay at horizon U: one more horizon unit opens
         the consensus retry cascade and a minutes-long space — the
         differential is about verdict equality, not about stressing the
         cascade (the crash classes do range over the horizon) *)
      let hor = match klass with Mc_run.Network -> 1 | _ -> hor in
      let budgets =
        {
          (Mc_limits.default_budgets ~u) with
          Mc_limits.horizon = hor * u;
          max_late = late;
        }
      in
      let votes =
        Array.map (fun y -> if y then Vote.yes else Vote.no) yeas
      in
      let arm symmetry =
        Mc_run.run ~budgets ~symmetry ~vote_sets:[ votes ] ~jobs:1 ~protocol
          ~n:4 ~f:1 ~klass ()
      in
      let off = arm false and on = arm true in
      violation_property off = violation_property on
      && off.Mc_run.replay_verified = on.Mc_run.replay_verified
      &&
      if Mc_run.clean off && Mc_limits.exhausted off.Mc_run.counters then
        Mc_limits.exhausted on.Mc_run.counters
        && on.Mc_run.counters.Mc_limits.states
           <= off.Mc_run.counters.Mc_limits.states
      else true)

let symmetry_differential_tests =
  List.map QCheck_alcotest.to_alcotest
    (List.concat_map
       (fun protocol ->
         [
           symmetry_differential ~protocol ~klass:Mc_run.Crash;
           symmetry_differential ~protocol ~klass:Mc_run.Network;
         ])
       [ "inbac"; "2pc"; "paxos-commit" ])

(* The artifact-level neutrality: every mctable row — verdict string and
   consistency flag, violated or clean — identical between the modes, on
   exhaustible spaces (crash at the default budgets, network at
   max_late=1 horizon=U) so "exhausted" annotations match too. *)
let test_mctable_verdicts_symmetry () =
  let protocols = [ "inbac"; "2pc"; "inbac-undershoot" ] in
  let compare_rows ~classes ~budgets =
    let rows symmetry =
      Table_mc.rows ~protocols ~classes ~budgets ~symmetry ~jobs:2 ~n:4 ~f:1
        ()
    in
    List.iter2
      (fun (a : Table_mc.row) (b : Table_mc.row) ->
        check Alcotest.string "verdict"
          (Mc_run.verdict_string a.Table_mc.outcome)
          (Mc_run.verdict_string b.Table_mc.outcome);
        check tbool "consistency flag" a.Table_mc.ok b.Table_mc.ok)
      (rows false) (rows true)
  in
  compare_rows ~classes:[ Mc_run.Crash ]
    ~budgets:(Mc_limits.default_budgets ~u:Sim_time.default_u);
  compare_rows ~classes:[ Mc_run.Network ]
    ~budgets:
      {
        (Mc_limits.default_budgets ~u:Sim_time.default_u) with
        Mc_limits.horizon = Sim_time.default_u;
        max_late = 1;
      }

(* ------------------------------------------------------------------ *)
(* Snapshot neutrality at the run and artifact level: golden values
   captured while the checker still had a second, record-recycling
   snapshot path, on which both paths agreed byte for byte. *)

let test_mctable_golden () =
  check Alcotest.string "mctable bytes"
    (String.concat "\n"
       [
         "Model checking at n=3, f=1 - every schedule of the bounded space";
         "per execution class (nice: synchronous and failure-free; crash: up";
         "to f crash injections; network: commit-layer messages may miss";
         "their synchronous slot). A verdict row is consistent when every";
         "violation found refutes only properties the protocol's cell does";
         "not claim for that class, and the engine replays it.";
         "";
         "| protocol | class | states | schedules | pruned | verdict                                  | claimed | ok  |";
         "|----------+-------+--------+-----------+--------+------------------------------------------+---------+-----|";
         "| inbac    | crash | 2044   | 428       | 864    | ok (exhausted)                           | AVT     | yes |";
         "| 2pc      | crash | 73     | 53        | 17     | VIOLATION: termination (replay-verified) | AV      | yes |";
         "";
       ])
    (Table_mc.render ~protocols:[ "inbac"; "2pc" ] ~classes:[ Mc_run.Crash ]
       ~jobs:2 ~n:3 ~f:1 ())

(* Network-class counters (overtake bookkeeping, late budgets — the
   paths with the most snapshot traffic) under a small state budget. *)
let test_network_counters_golden () =
  let budgets =
    {
      (Mc_limits.default_budgets ~u:Sim_time.default_u) with
      Mc_limits.max_states = 500;
    }
  in
  let c =
    (Mc_run.run ~budgets ~jobs:1 ~protocol:"inbac" ~n:3 ~f:1
       ~klass:Mc_run.Network ())
      .Mc_run.counters
  in
  check tint "states" 14000 c.Mc_limits.states;
  check tint "transitions" 16896 c.Mc_limits.transitions;
  check tint "schedules" 2872 c.Mc_limits.schedules;
  check tint "dedup hits" 2240 c.Mc_limits.dedup_hits;
  check tint "sleep skips" 14764 c.Mc_limits.sleep_skips

let () =
  let quick name fn = Alcotest.test_case name `Quick fn in
  Alcotest.run "mc"
    [
      ("canonical-vs-engine", cross_validation_tests);
      ( "fingerprint",
        Fp_inbac.tests @ Fp_2pc.tests
        @ [
            quick "inbac: backends explore identically"
              (test_backends_agree "inbac");
            quick "2pc: backends explore identically"
              (test_backends_agree "2pc");
          ] );
      ( "witnesses",
        [
          quick "2pc blocks on coordinator crash" test_2pc_blocks_on_crash;
          quick "undershoot splits on one crash"
            test_undershoot_crash_disagreement;
          quick "inbac crash space clean" test_inbac_crash_clean;
          quick "3pc crash space clean" test_3pc_crash_clean;
        ] );
      ( "determinism",
        [
          quick "counters independent of --jobs" test_counters_jobs_independent;
          quick "shrunk witness deterministic" test_witness_deterministic;
        ] );
      ( "frontier-scheduling",
        [
          quick "nice frontier splits (fixed-point regression)"
            test_frontier_nice_regression;
          quick "mctable bytes identical across jobs 1/2/8"
            test_mctable_bytes_across_jobs;
        ] );
      ( "symmetry",
        symmetry_differential_tests
        @ [
            quick "mctable verdicts identical symmetry on/off"
              test_mctable_verdicts_symmetry;
          ] );
      ( "snapshot",
        Fp_inbac.snapshot_tests @ Fp_2pc.snapshot_tests
        @ [
            quick "mctable bytes golden" test_mctable_golden;
            quick "network counters golden" test_network_counters_golden;
          ] );
    ]
