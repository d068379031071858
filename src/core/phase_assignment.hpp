#pragma once
/// \file phase_assignment.hpp
/// \brief Stage 2 of the flow: clock-stage assignment (paper §II-B).
///
/// Every clocked element g receives a stage σ(g) = n·S(g) + φ(g) subject to
///   * σ(j) ≥ σ(i) + 1 for every ordinary fanin edge (i, j),
///   * σ(T1) ≥ max(σ(i1)+3, σ(i2)+2, σ(i3)+1) for T1 fanins sorted by stage
///     (paper eq. 3 — the three inputs need three distinct landing slots),
///   * all primary outputs balanced at a common virtual sink stage,
/// minimizing the number of path-balancing DFFs. The DFF count follows the
/// shared-spine model (DESIGN.md §4): a driver pays max over its consumers of
/// ceil((σc−σd)/n) − 1 spine DFFs, plus one dedicated landing DFF per T1
/// input whose slot stage is not spine-aligned — the discrete analogue of the
/// paper's collision cost (eq. 4).
///
/// Two engines:
///   * `Heuristic` — ASAP seed + coordinate-descent sweeps over σ. Each
///     evaluation is `descend_stage` (incr/schedule_refiner.hpp), the
///     per-node move the T1 commit guard's refiner runs too: the eq.-3
///     window of one element, priced with the exact shared-spine cost of
///     every candidate stage. By default the sweeps are *incremental*
///     (`PhaseAssignmentParams::incremental`): the first sweep evaluates only
///     nodes whose slack window (the view's conservative eq.-3-aware ALAP −
///     ASAP) is open, and later sweeps only nodes whose decision inputs a
///     committed move actually touched. Identical schedules to the legacy
///     full sweep (pinned by tests and asserted in bench/scaling),
///     near-linear instead of O(n·sweeps);
///   * `ExactMilp` — the ILP of the paper (per-driver max objective,
///     assignment binaries for the T1 slot permutation) solved by the
///     in-repo branch-and-bound; intended for small/medium networks and used
///     to validate the heuristic.
///
/// Both engines run on an `IncrementalView` over the network (its ASAP
/// stages, ALAP slack and consumer lists) and clock at its cost model's
/// phase count. The flow hands in the view its logical half maintained;
/// `assign_phases(net, clk, params)` builds one over a copy.

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "network/network.hpp"
#include "sfq/clocking.hpp"

namespace t1sfq {

enum class PhaseEngine { Heuristic, ExactMilp };

/// The clocking is not a setting here: it is the clocking of the view's cost
/// model (or, without a view, an argument of `assign_phases`).
struct PhaseAssignmentParams {
  PhaseEngine engine = PhaseEngine::Heuristic;
  /// Extra stages granted to the balanced-output sink beyond the minimum
  /// (ASAP) depth. Trading latency for fewer balancing DFFs: with slack the
  /// scheduler may slide whole subgraphs later so spines shorten.
  Stage output_slack = 0;
  /// Incremental (slack-seeded, dirty-worklist) coordinate descent. The
  /// schedule is identical to the legacy full sweep — only provably
  /// no-change evaluations are skipped; false keeps the full-sweep scheduler
  /// as the reference tests/phase_assignment_test.cpp and the bench/scaling
  /// scheduler race compare against.
  bool incremental = true;
};

struct PhaseAssignment {
  std::vector<Stage> stage;  ///< per node (T1 ports/bufs alias their source)
  Stage output_stage = 0;    ///< virtual balanced-PO sink stage
  int64_t estimated_dffs = 0;
  bool feasible = true;
};

/// DFF placement plan induced by a stage assignment: exactly what the
/// insertion pass will materialize, and the cost the scheduler optimizes.
struct InsertionPlan {
  /// Per T1 body: landing slot (1..3) for each fanin position.
  std::unordered_map<NodeId, std::array<int, 3>> t1_slots;
  /// Per driver (indexed by NodeId): shared-spine length in DFFs.
  std::vector<Stage> spine_len;
  /// Dedicated (non-spine-aligned) T1 landing DFFs.
  int64_t dedicated_landings = 0;
  int64_t total_dffs() const;
};

/// Computes the insertion plan for a given assignment (the canonical cost
/// model shared by the scheduler, the inserter, and the tests).
InsertionPlan plan_dffs(const Network& net, const std::vector<Stage>& stage,
                        Stage output_stage, const MultiphaseConfig& clk);

/// Resolves a node to the *scheduled element* that times its pulse
/// (T1 ports resolve to their body; everything else to itself). Use this for
/// stage lookups.
NodeId resolve_producer(const Network& net, NodeId id);

/// Resolves a node to the *physical output pin* pulses come from: Buf chains
/// collapse, but a T1 port keeps its identity (each port is a distinct pin
/// with its own DFF spine). Use this as the key for spine/fanout accounting.
NodeId driver_key(const Network& net, NodeId id);

/// Deterministic minimum-cost landing-slot permutation of T1 body \p t1 under
/// \p stage (slots[i] = slot of fanin i, slot ∈ {1,2,3}; \p n = phase count).
/// Shared by plan_dffs, the scheduler and the incremental plan views
/// (incr/incremental_view.hpp), so every layer agrees on the slot choice.
std::array<int, 3> t1_slot_perm(const Network& net, const std::vector<Stage>& stage,
                                NodeId t1, Stage n, int64_t* cost_out = nullptr);

/// Minimal feasible stage of \p u given its fanins under \p stage (eq.-3
/// aware for T1 bodies): the lower end of `descend_stage`'s move window.
Stage sched_local_lower_bound(const Network& net, const std::vector<Stage>& stage,
                              NodeId u);

/// Largest stage input \p u may take so that T1 consumer \p j stays feasible
/// under eq. 3 with the other fanins fixed (enters the window's upper end).
Stage sched_t1_max_input_stage(const Network& net, const std::vector<Stage>& stage,
                               NodeId j, NodeId u);

class IncrementalView;
/// Schedules `view.net()` at the clocking of `view.model()`. The view must be
/// in sync with its network; it is only read.
PhaseAssignment assign_phases(const IncrementalView& view,
                              const PhaseAssignmentParams& params = {});

/// Convenience for callers without a view: builds one over a copy of \p net
/// (Buf-free, like every view) that clocks at \p clk, and schedules it.
PhaseAssignment assign_phases(const Network& net, const MultiphaseConfig& clk,
                              const PhaseAssignmentParams& params = {});

/// Validates eq.-3/edge constraints of an assignment (used by tests).
bool assignment_feasible(const Network& net, const std::vector<Stage>& stage,
                         Stage output_stage, const MultiphaseConfig& clk);

}  // namespace t1sfq
