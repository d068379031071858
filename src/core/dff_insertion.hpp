#pragma once
/// \file dff_insertion.hpp
/// \brief Stage 3 of the flow: materializing path-balancing DFFs (paper §II-C).
///
/// Executes the `InsertionPlan` of cost/dff_plan.hpp: every driver grows a
/// shared DFF spine at stages σd+n, σd+2n, …; ordinary consumers tap the
/// spine, and each T1 input either consumes a spine stage directly (when its
/// landing slot is spine-aligned) or through one dedicated landing DFF at
/// exactly σT1 − slot. By construction the three landing elements of a T1 sit
/// at pairwise distinct stages — paper eq. 5 — which the pulse-level
/// simulator re-verifies independently.
///
/// The result is a *physical* netlist: every node carries a stage, DFFs are
/// explicit, and splitter demand (fanout − 1 per multi-fanout driver) is
/// tallied for the area metric.

#include <cstdint>
#include <vector>

#include "core/phase_assignment.hpp"
#include "network/network.hpp"
#include "sfq/clocking.hpp"

namespace t1sfq {

struct PhysicalNetlist {
  Network net;
  std::vector<Stage> stage;  ///< per node of `net`
  Stage output_stage = 0;
  std::size_t num_dffs = 0;
  std::size_t num_splitters = 0;
  /// Mapping from the logical network's node ids into `net`.
  std::vector<NodeId> node_map;
};

PhysicalNetlist insert_dffs(const Network& net, const PhaseAssignment& assignment,
                            const MultiphaseConfig& clk);

}  // namespace t1sfq
