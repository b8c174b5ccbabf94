// Seeded chaos scenarios: one seed → one fully deterministic run of a
// subsystem under an injected failure schedule, plus the invariants that
// must hold for ANY schedule.
//
// The eleven scenario kinds (by seed % 11, or by name) and their invariants:
//
//   checkpoint / incremental — an iterative mini-MPI app checkpoints under
//     storage faults, torn uploads, protocol crashes and a tick-kill.
//     Invariants: the run completes within the fault budget; a restore
//     never regresses below recorded committed progress and never exceeds
//     attempted progress; restored bytes bit-match the state saved at that
//     iteration; after completion the latest committed snapshot is the
//     final state of every rank.
//
//   replay — a synthetic plan replays a generated market with forced spot
//     kills. Invariants: the same (plan, injector) replays bit-identically;
//     a quiet injector replays identically to no injector; the on-demand
//     fallback always lands within the harness-computed worst-case deadline
//     bound  max_i max_t (t·h + Ratio_i(t)·T_od);  ratios and fractions
//     stay in [0, 1].
//
//   service — a PlanService serves a request sequence under injected shed
//     pressure and mid-sequence market-epoch bumps. Invariants: every
//     non-shed response is fingerprint-identical to a fresh reference solve
//     at its epoch (cache hits included, across bumps); sheds carry no
//     plan; the stats counters tally.
//
//   plan — the optimizer is a pure function: same inputs → bit-identical
//     plan fingerprints across repeated solves.
//
//   feed — a market-feed pipeline replays a trace tail into a MarketBoard
//     under injected tick chaos (drops, duplicates, reordering).
//     Invariants: a synchronous single-source run and a multi-producer
//     queued run of the same post-chaos streams commit bit-identical price
//     matrices, epoch sequences and digests; without chaos the committed
//     market bit-matches the recorded trace; the tick/commit conservation
//     laws hold; a plan served at the final epoch is fingerprint-identical
//     to a fresh solve on the published market.
//
//   multilevel — the scenario-0 app runs over the multi-level checkpoint
//     hierarchy (node cache + peer redundancy + S3-sim remote) under cache
//     wipes, shard losses and killed flushes, at most one loss per version.
//     Invariants: the run completes within the fault budget and restores
//     never regress; the post-mortem restore returns the final iteration's
//     exact bytes with ZERO billed S3-sim GETs (single-rank losses rebuild
//     from peers); after a total cache loss only remote-committed versions
//     serve — exactly one GET per rank, killed flushes stay invisible; the
//     optimizer's multi-level policy set never costs more than single-level
//     and an empty policy list keeps the degenerate fingerprint
//     byte-identical.
//
//   platform — a seeded random heterogeneous platform (perturbed host
//     rates, shared/dedicated links, derated zones) is rendered to the
//     declarative text format, reparsed, and solved over. Invariants: the
//     render→parse round trip is lossless (zero skipped lines,
//     bit-identical effective specs); injected garbage lines skip with
//     per-class counters without disturbing well-formed declarations;
//     Platform::flat reproduces the catalog estimator 0 ULP; fair sharing
//     never gains bandwidth from extra flows; allreduce is exactly two
//     bcasts; plans over the platform are bit-identical across repeated
//     solves.
//
//   sharded — a seeded {1, 2, 4, 8}-shard serving tier (consistent-hash
//     router, fan-out-replicated boards, cross-shard dedup) runs a request
//     stream mixing ring-routed and sprayed landings, epoch bumps and
//     seeded cache wipes, in lockstep with a single-shard oracle fed the
//     identical updates. Invariants: every tier response is
//     fingerprint-identical to the oracle's at the same epoch; per-shard
//     counters sum to the aggregate and the outcome classes partition the
//     requests; the solve ledger balances the solve counter, with zero
//     duplicate solves whenever no cache wipe fired.
//
//   wire — the plan tier's wire boundary (src/net) is invisible. Codec:
//     every message type round-trips byte-identically through seeded chunk
//     splits (a decoded request re-canonicalizes to the IDENTICAL cache
//     key, a decoded plan reproduces its fingerprint byte for byte), and
//     each corruption class — flipped payload bit, flipped magic,
//     truncation, splice, unknown version/type, overlong declaration,
//     malformed payload — rejects with exactly the expected class counter,
//     never a crash. End to end: a router-aware client over a seeded
//     {1,2,4,8}-shard PlanServerLoop (with mid-stream epoch bumps) serves
//     plans fingerprint-identical to the in-process 1-shard oracle with a
//     zero forwarding counter and zero codec rejects; under seeded wire
//     chaos (torn writes, drops, short reads) every async submission still
//     completes exactly once — verified plan, explicit shed, or error.
//
//   warmstart — one MarketBoard under a random epoch-delta stream (random
//     dirty-group sets plus empty forced bumps) is served by a warm
//     service in lockstep with the cold solve() oracle. Invariants: every
//     warm plan is fingerprint-identical to a cold solve of its snapshot;
//     a scope's first solve reuses zero tables, a re-plan's table span
//     never changes, and a clean bump (no history moved since the scope's
//     last solve) rebuilds zero tables; replan_count matches an
//     independently tracked re-solve census.
//
// Every observable a scenario digests is deterministic at any thread count,
// so `run_scenario(seed).digest` is byte-comparable across machines and
// pool widths — that is the property the fuzz driver self-checks.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace sompi::fi {

struct ScenarioOutcome {
  std::uint64_t seed = 0;
  std::string kind;
  bool failed = false;
  /// First violated invariant (empty when clean).
  std::string detail;
  /// Order-sensitive hash of every deterministic observable of the run.
  std::uint64_t digest = 0;
};

/// Runs the scenario selected by `seed`. Deterministic: same seed → same
/// outcome, digest included, at any thread count.
ScenarioOutcome run_scenario(std::uint64_t seed);

/// Runs the named kind with `seed` (a repro that survives added kinds): for
/// the seed's own kind, run_scenario(seed) exactly. nullopt for no such kind.
std::optional<ScenarioOutcome> run_scenario(std::string_view kind, std::uint64_t seed);

}  // namespace sompi::fi
