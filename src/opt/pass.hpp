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
#include "sfq/cell_library.hpp"
#include "sfq/clocking.hpp"

namespace t1sfq {

struct OptParams {
  bool enable = true;            ///< master switch (false reproduces seed flows)
  bool cut_rewriting = true;
  bool balancing = true;
  bool resubstitution = true;
  unsigned rounds = 3;           ///< pipeline repetitions (stops when converged)
  unsigned cut_size = 4;         ///< rewriting cut width
  unsigned max_cuts = 12;        ///< priority cuts kept per node
  unsigned sim_words = 8;        ///< resub signature words (64 patterns each)
  uint64_t sat_conflict_budget = 20000;  ///< per resubstitution proof
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
  /// Slack-aware resubstitution donor pricing: the donor-side pin is priced
  /// at the latest stage its slack window (the view's delta-maintained ALAP)
  /// lets the phase-assignment sweeps slide it to, capped at the target's
  /// level. Donors that fit the target's slack window thus avoid phantom DFF
  /// charges for the rerouted consumers — charges the scheduler would have
  /// slid away anyway. false prices every donor at its ASAP stage.
  bool slack_aware_resub = true;
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
  /// SAT-check every Nth changed shard commit against its pre-optimization
  /// sub-network (0 = off). Independent of `verify`, which guards every
  /// shard's passes internally.
  unsigned partition_sample_every = 8;
  /// Run the boundary-stitching round (re-partition with offset seams and
  /// re-optimize the regions holding surviving frozen-boundary roots).
  bool partition_stitch = true;
  MultiphaseConfig clk{4};       ///< clocking for the DFF-aware cost model
  CellLibrary lib{};             ///< area model for gain accounting
  AreaConfig area{};             ///< accounting switches (clock share per cell)

  /// The unified JJ cost model every pass prices decisions through.
  CostModel cost() const { return CostModel(lib, area, clk); }
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

/// A network-to-network transform. Implementations mutate the network in
/// place (dangling cones are swept by the manager) and must preserve the
/// combinational function of every primary output. Passes never increase the
/// network depth: every local commit is constrained to a root level at most
/// the level it replaces.
class Pass {
public:
  explicit Pass(const OptParams& params) : params_(params) {}
  virtual ~Pass() = default;
  virtual const char* name() const = 0;
  /// Runs the pass; returns the number of transforms committed.
  virtual std::size_t run(Network& net) = 0;

protected:
  OptParams params_;
};

class PassManager {
public:
  explicit PassManager(OptParams params) : params_(std::move(params)) {}

  void add(std::unique_ptr<Pass> pass) { passes_.push_back(std::move(pass)); }
  const OptParams& params() const { return params_; }
  std::size_t num_passes() const { return passes_.size(); }

  /// Runs all passes for up to `params.rounds` rounds with the equivalence
  /// guard between passes. The network is compacted after every pass.
  OptSummary run(Network& net);

  /// rewriting -> balancing -> resubstitution, honoring the per-pass toggles.
  static PassManager standard(const OptParams& params = {});

private:
  OptParams params_;
  std::vector<std::unique_ptr<Pass>> passes_;
};

/// Convenience: standard pipeline on \p net. No-op when `params.enable` is
/// false or the network contains nothing to optimize.
OptSummary optimize(Network& net, const OptParams& params = {});

/// True for the plain clocked logic cells the optimizer may restructure
/// (excludes PIs/constants, wiring cells, DFFs and committed T1 regions).
bool is_opt_gate(GateType type);

/// Shared-spine DFF estimate of a network under ASAP stages (stage = level):
/// the `plan_dffs` cost model of phase_assignment.hpp applied pre-mapping.
/// This is the objective the DFF-aware passes optimize against.
int64_t estimate_plan_dffs(const Network& net, const MultiphaseConfig& clk);

}  // namespace t1sfq
