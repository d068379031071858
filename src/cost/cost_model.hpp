#pragma once
/// \file cost_model.hpp
/// \brief The unified JJ cost model: one currency for every optimization layer.
///
/// The paper's entire value proposition is area in Josephson junctions — eq. 2
/// prices a T1 candidate by the JJ area that disappears. Historically the
/// codebase computed "cost" in three inconsistent currencies (the rewrite
/// database counted abstract gates, resubstitution scored shared-spine DFFs,
/// T1 detection used raw gate area), which made the layers fight each other:
/// an optimized full adder (xor3+maj3, 28 JJ) undercut the 29 JJ T1 cell and
/// detection converted nothing on optimized netlists.
///
/// `CostModel` fuses the three ingredients every layer needs:
///   * `CellLibrary`      — per-cell JJ counts,
///   * `AreaConfig`       — splitter accounting and the clock-network share
///                          charged to every clocked element,
///   * `MultiphaseConfig` — the stage arithmetic behind the shared-spine
///                          path-balancing DFF model (`plan_dffs`).
///
/// Every consumer (rewrite database, the three `src/opt` passes, T1
/// detection, the flow reporting) prices decisions through this one model, so
/// a different library reshapes all of them coherently. `signature()` hashes
/// every parameter and keys the per-library `RewriteDb` instances and their
/// on-disk cache.

#include <cstdint>
#include <vector>

#include "network/network.hpp"
#include "sfq/cell_library.hpp"
#include "sfq/clocking.hpp"

namespace t1sfq {

/// Area of a netlist split into the four JJ sinks of the flow. All layers
/// report through this struct so Table I, the ablation benchmark and the
/// per-pass statistics speak the same currency.
struct JJBreakdown {
  uint64_t logic = 0;     ///< combinational cells incl. T1 bodies/port inverters
  uint64_t dff = 0;       ///< path-balancing DFF bodies
  uint64_t splitter = 0;  ///< fanout splitters
  uint64_t clock = 0;     ///< clock-network share of the clocked elements
  uint64_t total() const { return logic + dff + splitter + clock; }
  JJBreakdown& operator+=(const JJBreakdown& o) {
    logic += o.logic;
    dff += o.dff;
    splitter += o.splitter;
    clock += o.clock;
    return *this;
  }
};

class CostModel {
public:
  CostModel() = default;
  CostModel(const CellLibrary& lib, const AreaConfig& area, const MultiphaseConfig& clk)
      : lib_(lib), area_(area), clk_(clk) {}

  const CellLibrary& lib() const { return lib_; }
  const AreaConfig& area() const { return area_; }
  const MultiphaseConfig& clk() const { return clk_; }

  /// Clock-network share of one clocked element.
  int64_t clock_share() const { return area_.clock_jj_per_clocked; }

  /// Marginal JJ of one cell instance: library body plus its clock share.
  /// This is what adding or removing the cell actually changes on the die.
  int64_t cell_jj(GateType t, T1PortFn port = T1PortFn::Sum) const {
    return static_cast<int64_t>(lib_.jj_cost(t, port)) +
           (is_clocked(t) ? clock_share() : 0);
  }

  /// Marginal JJ of one path-balancing DFF (body + clock share). At the
  /// defaults this is the paper's implicit 7 JJ/DFF Table-I cost.
  int64_t dff_jj() const { return lib_.jj_dff + clock_share(); }

  /// Marginal JJ of one fanout splitter (0 when splitters are not counted).
  int64_t splitter_jj() const { return area_.count_splitters ? lib_.jj_splitter : 0; }

  /// Gate + clock JJ of a node set (no DFF/splitter context).
  int64_t cone_jj(const Network& net, const std::vector<NodeId>& cone) const;

  /// FNV-1a hash of every cost parameter. Two models with equal signatures
  /// price every decision identically; used to key cached rewrite databases.
  uint64_t signature() const;

  /// Breakdown of a *logical* network under ASAP stages: gate and splitter
  /// terms are exact, the DFF term is the shared-spine `plan_dffs` estimate
  /// (including T1 landing chains via eq. 3 stages). This is the per-stage
  /// metric the flow reports between optimization, detection and insertion.
  /// \p output_stage_out and \p planned_dffs_out (if non-null) receive the
  /// ASAP sink stage and the plan total the DFF term is built from.
  JJBreakdown network_breakdown(const Network& net, Stage* output_stage_out = nullptr,
                                int64_t* planned_dffs_out = nullptr) const;

  /// Breakdown of a materialized physical netlist (DFFs are real nodes,
  /// splitters are counted by the inserter).
  JJBreakdown physical_breakdown(const Network& physical_net,
                                 std::size_t num_splitters) const;

private:
  CellLibrary lib_{};
  AreaConfig area_{};
  MultiphaseConfig clk_{4};
};

/// FNV-1a mixing step shared by the cost-signature hashes (CostModel,
/// RewriteDb::Params).
inline uint64_t fnv64_mix(uint64_t h, uint64_t v) {
  h ^= v;
  h *= 1099511628211ULL;
  return h;
}

/// Per-driver fanout counts for splitter accounting (PO edges included):
/// edges into T1Port nodes are excluded — a port is an independent readout
/// path of its body, not a split copy of a pulse. Shared by the logical
/// breakdown estimate and the physical inserter so the two can never
/// disagree on what counts as a split.
std::vector<uint32_t> splitter_fanouts(const Network& net);

/// Legal ASAP stages of a logical network: stage(gate) = max(fanin stages)+1,
/// T1 bodies obey eq. 3 (three distinct landing slots), T1 ports and buffers
/// alias their producer. Returns the per-node stages; \p output_stage_out (if
/// non-null) receives the balanced-sink stage (max PO stage + 1).
std::vector<Stage> asap_stages(const Network& net, Stage* output_stage_out = nullptr);

}  // namespace t1sfq
