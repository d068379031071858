#pragma once
/// \file mffc.hpp
/// \brief Maximum fanout-free cone computation (paper eq. 2).
///
/// The MFFC of a node u is the set of nodes in the transitive fanin of u that
/// are used *only* through u: removing u removes exactly its MFFC. The T1
/// detection pass prices a candidate replacement by the total area of the
/// MFFCs of the replaced roots, `ΔA = Σ A(MFFC(u_i)) − A_T1(C)`.

#include <vector>

#include "network/network.hpp"

namespace t1sfq {

/// Computes the MFFC of \p root, stopping at (never including) \p leaves,
/// PIs and constants. \p fanout_counts must come from `Network::fanout_counts`.
/// The returned set is in no particular order and always contains \p root
/// (unless root is a PI/constant/leaf, in which case it is empty).
///
/// Algorithm: simulated reference-count dereferencing — recursively
/// decrement fanin references from the root; a node joins the cone when its
/// count reaches zero (i.e. all its fanouts are inside the cone). The
/// decrements live in per-thread scratch and touch only the nodes the walk
/// reaches, so a call costs its cone, not the network, and concurrent calls
/// from different threads are safe.
std::vector<NodeId> mffc(const Network& net, NodeId root,
                         const std::vector<uint32_t>& fanout_counts,
                         const std::vector<NodeId>& leaves = {});

}  // namespace t1sfq
