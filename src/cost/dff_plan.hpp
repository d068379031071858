#pragma once
/// \file dff_plan.hpp
/// \brief The shared-spine DFF-plan model: how many path-balancing DFFs a
/// stage assignment needs (paper §II-B, eqs. 3–5).
///
/// Every clocked element g sits at a stage σ(g) = n·S(g) + φ(g). A schedule
/// is feasible when
///   * σ(j) ≥ σ(i) + 1 for every ordinary fanin edge (i, j),
///   * σ(T1) ≥ `t1_body_stage` of its fanins' stages (paper eq. 3 — the three
///     inputs need three distinct landing slots),
///   * all primary outputs are balanced at a common virtual sink stage.
/// Its DFF count follows the shared-spine model: a driver pin pays the max
/// over its consumers of `dffs_on_edge` spine DFFs, a T1 input landing in its
/// slot rides `landing_spine` DFFs of that spine and pays one dedicated
/// landing DFF when `landing_dedicated` (paper eq. 5; both in
/// sfq/clocking.hpp) — the discrete analogue of the paper's collision cost
/// (eq. 4). Each body takes the cheapest of the six slot orders.
///
/// `plan_dffs` is the from-scratch plan. The scheduler minimizes it, the
/// inserter materializes it, `CostModel::network_breakdown` prices it on ASAP
/// stages, and the delta-maintained views of `IncrementalView` are pinned
/// bit-identical to it.

#include <array>
#include <cstdint>
#include <vector>

#include "network/network.hpp"
#include "sfq/clocking.hpp"

namespace t1sfq {

/// Resolves a node to the *scheduled element* that times its pulse
/// (T1 ports resolve to their body; everything else to itself). Use this for
/// stage lookups.
NodeId resolve_producer(const Network& net, NodeId id);

/// Resolves a node to the *physical output pin* pulses come from: Buf chains
/// collapse, but a T1 port keeps its identity (each port is a distinct pin
/// with its own DFF spine). Use this as the key for spine/fanout accounting.
NodeId driver_key(const Network& net, NodeId id);

/// The six landing-slot orders of a T1 body, in `std::next_permutation`
/// order: order k lands fanin i in slot `kT1SlotOrders[k][i]`.
inline constexpr std::array<std::array<int, 3>, 6> kT1SlotOrders = {
    {{1, 2, 3}, {1, 3, 2}, {2, 1, 3}, {2, 3, 1}, {3, 1, 2}, {3, 2, 1}}};

/// Index into kT1SlotOrders of the cheapest landing order for fanins whose
/// producers sit at stages \p sd, feeding a body at stage \p sj: the first
/// minimum in that order, order 0 when no order is feasible (exactly when
/// \p sj < `t1_body_stage` of \p sd). Prices a 3x3 landing-cost table once
/// and sums it six ways. \p cost_out receives the order's landing-chain DFFs
/// (a sentinel far above any real count when infeasible).
unsigned t1_slot_order(const std::array<Stage, 3>& sd, Stage sj, const MultiphaseConfig& clk,
                       int64_t* cost_out = nullptr);

/// Deterministic minimum-cost landing-slot permutation of T1 body \p t1 under
/// \p stage (slots[i] = slot of fanin i, slot ∈ {1,2,3}):
/// `kT1SlotOrders[t1_slot_order(...)]` over the body's producer stages.
/// Shared by plan_dffs, the inserter and the incremental plan views
/// (incr/incremental_view.hpp), so every layer agrees on the slot choice.
std::array<int, 3> t1_slot_perm(const Network& net, const std::vector<Stage>& stage,
                                NodeId t1, const MultiphaseConfig& clk,
                                int64_t* cost_out = nullptr);

/// DFF placement plan induced by a stage assignment: exactly what the
/// insertion pass will materialize, and the cost the scheduler optimizes.
struct InsertionPlan {
  /// Per driver (indexed by NodeId): shared-spine length in DFFs.
  std::vector<Stage> spine_len;
  /// Dedicated (non-spine-aligned) T1 landing DFFs.
  int64_t dedicated_landings = 0;
  int64_t total_dffs() const;
};

/// Computes the insertion plan for a feasible assignment \p stage (T1 taps
/// aliased to their body) balanced at sink stage \p output_stage.
InsertionPlan plan_dffs(const Network& net, const std::vector<Stage>& stage,
                        Stage output_stage, const MultiphaseConfig& clk);

/// Validates the eq.-3 and edge constraints of an assignment. A T1 body also
/// needs at least four phases (slots {1,2,3} need a landing hop of at most
/// n − 1 stages) and no constant fanin.
bool assignment_feasible(const Network& net, const std::vector<Stage>& stage,
                         Stage output_stage, const MultiphaseConfig& clk);

}  // namespace t1sfq
