(** Exploration budgets and counters of the [ac_mc] model checker. *)

type budgets = {
  max_depth : int;  (** schedule steps per path before a depth cut *)
  max_states : int;
      (** distinct fingerprints stored per visited table (every frontier
          item has its own) *)
  horizon : Sim_time.t;
      (** timers armed beyond this instant never fire: bounds the
          otherwise-unbounded consensus retry cascade *)
  max_late : int;
      (** network-failure classes: at most this many commit-layer
          messages may miss their synchronous slot (the paper's witness
          adversaries procrastinate commit-layer messages only;
          consensus-layer delays stay within [U]) *)
}

val default_budgets : u:Sim_time.t -> budgets

type fp_backend =
  | Fp_hashed
      (** canonical zero-marshal hashing through
          {!Proto.PROTOCOL.hash_state} and {!Fingerprint} (the default) *)
  | Fp_marshal
      (** the historical [Marshal]-and-digest path, kept as a semantic
          reference: the CI smoke job pins that both backends produce
          byte-identical [mctable] counters *)

val default_fp : fp_backend
val fp_backend_of_string : string -> fp_backend option
val fp_backend_to_string : fp_backend -> string

val default_symmetry : bool
(** Whether the checker canonicalizes fingerprints under the protocol's
    declared process-permutation group ({!Proto.PROTOCOL.symmetry}) by
    default. Only meaningful with {!Fp_hashed}: the marshal backend
    hashes raw bytes in which pids escape the renaming, so callers force
    symmetry off there. *)

type counters = {
  mutable states : int;  (** distinct state fingerprints stored *)
  mutable transitions : int;  (** events executed *)
  mutable schedules : int;  (** maximal explored paths (leaves of the DFS) *)
  mutable terminals : int;  (** leaves with no pending event at all *)
  mutable dedup_hits : int;  (** paths cut at an already-visited state *)
  mutable sleep_skips : int;  (** sibling transitions pruned by sleep sets *)
  mutable horizon_cuts : int;
      (** leaves whose only pending events lie beyond the horizon *)
  mutable depth_cuts : int;
  mutable budget_hit : bool;  (** some subtree ran out of state budget *)
  mutable peak_visited : int;
      (** largest visited-table occupancy of any frontier item (merged
          with [max], not [+]). Deliberately absent from {!pp_counters}
          so the [mctable] artifact stays byte-stable across backends
          and job counts. *)
  mutable canon_calls : int;
      (** fingerprints computed with a non-trivial permutation group
          installed (zero exactly when symmetry reduction was off or the
          group collapsed to trivial) *)
  mutable orbit_hits : int;
      (** canonicalizations whose minimal digest was achieved by a
          non-identity permutation: states stored under a renamed
          representative (the orbit-collapse evidence) *)
  mutable twin_skips : int;
      (** candidate transitions dropped because they are the
          permutation-image of a sibling at a symmetric state *)
}

val fresh_counters : unit -> counters
val add_counters : counters -> counters -> unit

val exhausted : counters -> bool
(** Whether the bounded space was fully explored (no depth or state-budget
    truncation; horizon cuts are part of the bound, not a truncation). *)

val pp_counters : Format.formatter -> counters -> unit
(** Prints the historical counter line; a symmetry suffix (orbit hits,
    twin skips) is appended only when [canon_calls > 0], so symmetry-off
    output is byte-identical to the pre-symmetry format. *)
