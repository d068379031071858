#pragma once
/// \file pass.hpp
/// \brief Pre-mapping optimization framework: Pass interface + PassManager.
///
/// The optimization subsystem restructures the *logical* network before the
/// T1 flow (detection -> phase assignment -> DFF insertion) sees it. Every
/// unit of logic depth and every gate the optimizer removes is paid back
/// multiplied downstream: fewer clocked cells to balance, shorter DFF spines,
/// fewer JJ. Three passes compose into the standard pipeline:
///
///   1. cut rewriting      — replace 4-input cut MFFCs with cheaper
///                           precomputed structures (rewrite_db.hpp),
///   2. depth balancing    — rebalance associative And/Or/Xor chains to
///                           minimize level (level == clock stages),
///   3. resubstitution     — reuse existing equivalent signals, scored by the
///                           shared-spine DFF cost model of phase_assignment.
///
/// The PassManager runs the pipeline for a bounded number of rounds (stopping
/// early at a fixed point) and guards every pass with an equivalence check
/// against the pre-pass network: a falsified pass is reverted wholesale.
/// Individual transforms are additionally sound by construction (truth-table
/// exact rewrites, SAT-proved resubstitutions).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cost/cost_model.hpp"
#include "network/network.hpp"

namespace t1sfq {

struct OptParams {
  bool enable = true;            ///< master switch (false reproduces seed flows)
  bool cut_rewriting = true;
  bool balancing = true;
  bool resubstitution = true;
  unsigned rounds = 3;           ///< pipeline repetitions (stops when converged)
  bool verify = true;            ///< pass-level equivalence guard (revert on failure)
  /// Maintain analysis state (fanouts, levels, consumer lists, spines)
  /// incrementally through `IncrementalView` as commits land — update cost
  /// proportional to the affected cone. False services every commit with a
  /// full O(n) recompute instead: the reference tests/opt_property_test.cpp
  /// requires the default to match netlist for netlist.
  bool incremental = true;
  /// Conflict cap for the pass-level SAT guard; 0 = unlimited. Random
  /// simulation always runs in full, so a budget-out can only ever keep a
  /// change whose transforms were already individually proven.
  uint64_t verify_conflict_budget = 100000;
  /// Partition-parallel engine (src/part/shard_runner.hpp): number of worker
  /// threads optimizing fanout-bounded regions concurrently. 0 = today's
  /// sequential pipeline (bit-identical default); any N >= 1 runs the
  /// partitioned engine, whose result is byte-identical for every N.
  unsigned partition_jobs = 0;
  /// Gate-count cap per region for the partitioned engine.
  std::size_t partition_max_region = 3000;
  /// Below this many gates the partitioned engine falls back to the
  /// sequential pipeline (shard overhead dominates).
  std::size_t partition_min_gates = 4000;
};

enum class PassVerdict {
  Proved,    ///< SAT-proved equivalent to the pre-pass network
  Unknown,   ///< guard budget exhausted (simulation clean, transforms proven)
  Reverted,  ///< guard falsified the pass; network restored
  Skipped,   ///< verification disabled or pass applied nothing
};

struct PassStats {
  std::string name;
  unsigned round = 0;
  std::size_t applied = 0;  ///< local transforms committed
  std::size_t gates_before = 0, gates_after = 0;
  uint32_t depth_before = 0, depth_after = 0;
  /// Shared-spine DFF estimate (plan_dffs on ASAP stages) around the pass.
  int64_t plan_dffs_before = 0, plan_dffs_after = 0;
  /// Unified JJ estimate (CostModel::network_breakdown) around the pass.
  uint64_t jj_before = 0, jj_after = 0;
  PassVerdict verdict = PassVerdict::Skipped;
};

struct OptSummary {
  std::vector<PassStats> passes;
  std::size_t gates_before = 0, gates_after = 0;
  uint32_t depth_before = 0, depth_after = 0;
  int64_t plan_dffs_before = 0, plan_dffs_after = 0;
  uint64_t jj_before = 0, jj_after = 0;
  std::size_t total_applied = 0;
};

/// Copies one measured network state into the before fields of a PassStats
/// or OptSummary.
template <class Stats>
void record_before(Stats& s, const NetworkMeasure& m) {
  s.gates_before = m.gates;
  s.depth_before = m.depth;
  s.plan_dffs_before = m.plan_dffs;
  s.jj_before = m.jj;
}

/// Copies one measured network state into the after fields of a PassStats
/// or OptSummary.
template <class Stats>
void record_after(Stats& s, const NetworkMeasure& m) {
  s.gates_after = m.gates;
  s.depth_after = m.depth;
  s.plan_dffs_after = m.plan_dffs;
  s.jj_after = m.jj;
}

/// A network-to-network transform. Implementations mutate the network in
/// place (dangling cones are swept by the manager) and must preserve the
/// combinational function of every primary output. Passes never increase the
/// network depth: every local commit is constrained to a root level at most
/// the level it replaces. Every decision is priced through \p model, the
/// flow's unified JJ cost model.
class Pass {
public:
  Pass(const CostModel& model, const OptParams& params)
      : model_(model), params_(params) {}
  virtual ~Pass() = default;
  virtual const char* name() const = 0;
  /// Runs the pass; returns the number of transforms committed.
  virtual std::size_t run(Network& net) = 0;

protected:
  CostModel model_;
  OptParams params_;
};

class PassManager {
public:
  PassManager(const CostModel& model, OptParams params)
      : model_(model), params_(std::move(params)) {}

  void add(std::unique_ptr<Pass> pass) { passes_.push_back(std::move(pass)); }
  const CostModel& model() const { return model_; }
  const OptParams& params() const { return params_; }
  std::size_t num_passes() const { return passes_.size(); }

  /// Runs all passes for up to `params.rounds` rounds with the equivalence
  /// guard between passes. The network is compacted after every pass.
  OptSummary run(Network& net);

  /// rewriting -> balancing -> resubstitution, honoring the per-pass toggles.
  static PassManager standard(const CostModel& model, const OptParams& params = {});

private:
  CostModel model_;
  OptParams params_;
  std::vector<std::unique_ptr<Pass>> passes_;
};

/// Convenience: standard pipeline on \p net, priced through \p model (pass
/// the flow's own model so the optimizer prices at the flow's library and
/// phase count). No-op when `params.enable` is false or the network contains
/// nothing to optimize.
OptSummary optimize(Network& net, const CostModel& model, const OptParams& params = {});

}  // namespace t1sfq
