(** The pluggable automata-composition core.

    [Make (P) (C)] interprets the pure protocol automaton [P], co-hosted
    with one consensus instance of [C] per process, exactly as the paper's
    engine does — action interpretation, the guard loop, the
    commit/consensus mutual recursion, decision recording, crash marking,
    send budgets and timer-cancellation epochs — but leaves {e scheduling}
    to the caller through a {!sink}: every message transmission and timer
    arming is reported to the sink, and the caller decides when (and
    whether, and in which order) the resulting delivery and timeout events
    re-enter through {!propose} / {!deliver} / {!timeout} / {!crash}.

    Two drivers share this core: {!Engine} plugs a timed event queue and a
    network model into the sink (the simulation), and [ac_mc] plugs a
    pending-event frontier into it (the model checker), so both execute
    bit-identical protocol semantics. *)

val guard_fuel : int
(** Guard-loop re-evaluation bound before the run is declared divergent. *)

module Make (P : Proto.PROTOCOL) (C : Proto.CONSENSUS) : sig
  type wire = Commit_msg of P.msg | Cons_msg of C.msg

  val layer_of_wire : wire -> Trace.layer
  val tag_of_wire : wire -> string

  type sink = {
    send :
      now:Sim_time.t -> src:Pid.t -> dst:Pid.t -> wire -> Sim_time.t;
        (** Schedule a delivery (self-addressed sends included: the engine
            delivers those at [now], footnote 10). Returns the delivery
            instant for the trace. Only called for transmissions that
            actually happen: sends of crashed processes and sends beyond a
            [During_sends] budget are suppressed before the sink. *)
    set_timer :
      now:Sim_time.t -> pid:Pid.t -> layer:Trace.layer -> id:string ->
      fire:Proto.fire -> at:Sim_time.t -> epoch:int -> unit;
        (** Schedule a timeout at absolute instant [at] (the protocol's
            [fire] spec resolved against [now] and clamped to [now]; the
            raw spec is also passed so a replaying driver can re-anchor
            [After] timers to shifted instants). [epoch] is the timer's
            cancellation epoch at set time; pass it back to {!timeout},
            which suppresses stale fires. *)
  }

  type t

  val create :
    ?record_trace:bool ->
    env_of:(Pid.t -> Proto.env) -> n:int -> u:Sim_time.t -> sink:sink ->
    unit -> t
  (** [?record_trace] (default [true]) controls whether {!trace}
      accumulates an entry per event. Tracing never feeds back into the
      automata, so turning it off changes no observable behaviour — it
      skips the per-event entry allocation and the message-tag rendering,
      which is what a driver that never reads traces (the multi-shot
      commit service) wants on its hot path. *)

  val reset : t -> sink:sink -> unit
  (** Reinitialize the machine for a fresh run under a new [sink]:
      protocol and consensus states return to [init], crash/decision/
      timer bookkeeping and the trace are cleared. Equivalent to
      {!create} with the original parameters but reuses every array —
      the per-instance recycling path of the commit service. Snapshot
      records captured before a reset must not be restored after it. *)

  (* ---- inspection ------------------------------------------------ *)

  val trace : t -> Trace.t
  val pstate : t -> Pid.t -> P.state
  val cstate : t -> Pid.t -> C.state
  val decisions : t -> (Sim_time.t * Vote.decision) option array
  val crashed_at : t -> Sim_time.t option array
  val is_crashed : t -> Pid.t -> bool
  val cons_handed : t -> Pid.t -> bool
  (** Whether the consensus decision was already handed to the commit layer
      at this process. *)

  val timer_epoch : t -> Pid.t -> Trace.layer -> string -> int

  val crash_count : t -> int
  val epoch_bump_count : t -> int
  (** Monotone-per-path mutation counters: crashes marked and timer-epoch
      bumps ([Cancel_timer]) so far on the current execution path. Both
      are rewound by {!restore}. The model checker compares them across a
      step to skip re-filtering its pending event lists when nothing
      could have gone stale. *)

  val hash_pstate : t -> Fingerprint.t -> Pid.t -> unit
  val hash_cstate : t -> Fingerprint.t -> Pid.t -> unit
  (** Feed the process's protocol / consensus state into the accumulator
      via the module's {!Proto.PROTOCOL.hash_state} canonicalizer, or by
      hashing its marshalled bytes when the module does not provide one. *)

  val hash_wire : Fingerprint.t -> wire -> unit
  (** Feed a message payload (layer tag first) through the per-module
      {!Proto.PROTOCOL.hash_msg} canonicalizers, falling back to
      marshalled bytes. *)

  val symmetry : n:int -> f:int -> Symmetry.t
  (** The machine's process-interchangeability group: the meet of the
      protocol's and the consensus service's declared groups, degraded to
      {!Symmetry.trivial} when any canonical hasher is missing (marshal
      fallbacks embed unrenamed pids). *)

  (* ---- steps ----------------------------------------------------- *)

  val set_send_budget : t -> Pid.t -> at:Sim_time.t -> int -> unit
  (** Arm a [During_sends] crash: at instant [at] the process may transmit
      that many more network messages, then dies mid-action-list. *)

  val crash : t -> now:Sim_time.t -> Pid.t -> unit

  val propose : t -> now:Sim_time.t -> Pid.t -> Vote.t -> unit
  (** No-op (beyond nothing) when the process already crashed. *)

  val deliver :
    t -> now:Sim_time.t -> sent_at:Sim_time.t -> src:Pid.t -> dst:Pid.t ->
    wire -> unit
  (** Runs the destination handler, or traces a [Discard] when the
      destination has crashed. *)

  val timeout :
    t -> now:Sim_time.t -> pid:Pid.t -> layer:Trace.layer -> id:string ->
    epoch:int -> bool
  (** [false] when the fire was cancelled in the meantime (its epoch lags
      the current one): the event must count as suppressed, not as
      activity. A valid-epoch fire at a crashed process returns [true]
      without running the handler, like the engine always did. *)

  (* ---- snapshots (for the model checker) ------------------------- *)

  type snapshot

  val snapshot : t -> snapshot
  (** A fresh capture: copies the per-process arrays, shares the
      immutable values they hold. *)

  val restore : t -> snapshot -> unit
  (** [restore t s] rewinds [t] to the exact state captured by
      [snapshot t]: process states, decisions, crashes, budgets, timer
      epochs and the trace. Sink callbacks are not rewound — the caller
      owns whatever the sink accumulated. A snapshot may be restored any
      number of times. *)
end
