#pragma once
/// \file jj_delta.hpp
/// \brief Unified-JJ pricing of the two local restructurings of the opt passes.
///
/// Cut rewriting and resubstitution ask the same question: "if this cone dies
/// and that replacement takes over its consumers, how many JJ does the die
/// gain or lose?" The answer has four parts — gate bodies and clock shares
/// (`CostModel::cone_jj`), fanout splitters, and path-balancing DFFs under
/// the shared-spine model — and getting any of them wrong re-introduces the
/// currency mismatches the one cost model exists to remove.
///
/// Both functions read the facts they compose (ASAP stages, fanout counts,
/// consumer lists, PO membership, `spine()`) from the pass's
/// `IncrementalView`, which keeps them current under commits. All deltas are
/// signed JJ; negative improves the network. There is no refresh: passes
/// commit through the view and every later query prices against the
/// post-commit state.
///
/// The DFF terms are estimates under ASAP stages (stage = level): exact for
/// the dying cone's spines, and deliberately ignoring second-order effects
/// (leaf spines stretching into a replacement structure, downstream re-
/// balancing) that are bounded by the structure depth. The pass-level
/// equivalence guard and the end-to-end metrics keep the estimates honest.

#include <cstdint>
#include <vector>

#include "incr/incremental_view.hpp"
#include "network/network.hpp"

namespace t1sfq {

/// Total JJ delta of replacing \p root's MFFC \p cone with a structure of
/// \p new_jj total gate+clock JJ whose root lands at \p new_level (at most
/// the old root level). The structure is assumed splitter-free (a tree;
/// structural hashing can only do better) and to use each leaf once.
int64_t rewrite_delta(const IncrementalView& view, NodeId root,
                      const std::vector<NodeId>& cone, int64_t new_jj, uint32_t new_level);

/// Total JJ delta of rerouting \p target's consumers to \p donor and
/// letting \p cone (the target's MFFC) die. When \p invert, the reroute
/// goes through an inverter: \p existing_inv when not kNullNode, otherwise
/// a new Not cell is priced in.
///
/// \p pin_at (default −1: the pin's current ASAP stage) prices the
/// donor-side pin — the donor, its existing inverter, or the new inverter —
/// as if the scheduler had slid it to that stage. Slack-aware callers pass
/// `min(view.alap(pin), level(target))`: a donor whose slack window reaches
/// the target's stage pays what the target's edges paid instead of phantom
/// spine DFFs the phase-assignment sweeps would slide away anyway. The
/// slide is priced on both sides — downstream edges from \p pin_at, plus
/// the growth of the pin's fanin spines reaching the later stage — so a
/// discount the upstream would pay right back nets out to zero; callers
/// should evaluate both stages and keep the cheaper. \p pin_at must lie
/// within the pin's feasible window (ASAP..ALAP; a new inverter is bounded
/// below by the donor's stage + 1) or it is not realizable at all.
int64_t resub_delta(const IncrementalView& view, NodeId target,
                    const std::vector<NodeId>& cone, NodeId donor, bool invert,
                    NodeId existing_inv, Stage pin_at = -1);

}  // namespace t1sfq
