#pragma once
/// \file phase_assignment.hpp
/// \brief Stage 2 of the flow: clock-stage assignment (paper §II-B).
///
/// Every clocked element receives a stage under the constraints of the
/// shared-spine DFF-plan model (cost/dff_plan.hpp: ordinary edges, eq. 3 for
/// T1 bodies, a balanced output sink), minimizing that model's path-balancing
/// DFF count (`plan_dffs`).
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

#include <cstdint>
#include <vector>

#include "cost/dff_plan.hpp"
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

class IncrementalView;
/// Schedules `view.net()` at the clocking of `view.model()`. The view must be
/// in sync with its network; it is only read.
PhaseAssignment assign_phases(const IncrementalView& view,
                              const PhaseAssignmentParams& params = {});

/// Convenience for callers without a view: builds one over a copy of \p net
/// (Buf-free, like every view) that clocks at \p clk, and schedules it.
PhaseAssignment assign_phases(const Network& net, const MultiphaseConfig& clk,
                              const PhaseAssignmentParams& params = {});

}  // namespace t1sfq
