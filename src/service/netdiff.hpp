#pragma once
/// \file netdiff.hpp
/// \brief Structural diff of two networks → a journaled ECO edit script.
///
/// Given the previously submitted base network and a re-submitted edited
/// network, `diff_networks` computes a node correspondence and expresses the
/// edit as exactly the operations `IncrementalView` journals:
///
///   * `dirty_new`    — nodes of the edited network with no counterpart in
///                      the base (to be created, in topological order),
///   * `replacements` — base nodes whose consumers/PO references moved to an
///                      edited-network node (`IncrementalView::replace`),
///   * `dead_old`     — base nodes absent from the edited network
///                      (`IncrementalView::kill_cone`).
///
/// Matching is anchored by word-parallel simulation signatures (identical
/// seeded PI words on both networks) and then *verified structurally*: a
/// matched pair must agree on type/port/arity, and every fanin pair must be
/// either a matched correspondence or a consistent replacement edge. Pairs
/// failing verification are demoted to dirty/dead until a fixed point, so
/// the surviving correspondence is guaranteed consistent — applying the edit
/// script to the base provably reproduces the edited network. Signature
/// anchoring is what keeps the dirty set proportional to the edit: the
/// downstream fanout cone of a change re-matches through the replacement
/// edge instead of cascading dirty.

#include <cstdint>
#include <utility>
#include <vector>

#include "network/network.hpp"

namespace t1sfq::service {

struct NetDiff {
  /// False when the networks are not diffable at all (PI/PO counts or PI
  /// pairing differ) — the caller must treat the submission as a new
  /// circuit, not an edit.
  bool comparable = false;
  /// True when a PO moved between two *surviving* nodes — an edit shape the
  /// journaled script cannot express (replace moves every consumer at once);
  /// the caller falls back to a cold run.
  bool po_reroute = false;

  std::vector<NodeId> old_to_new;  ///< per base id; kNullNode = unmatched
  std::vector<NodeId> new_to_old;  ///< per edited id; kNullNode = unmatched

  std::vector<NodeId> dirty_new;  ///< unmatched live edited nodes, topo order
  std::vector<NodeId> dead_old;   ///< unmatched live base nodes
  /// (base node, edited node) pairs whose consumers moved; sources are
  /// always in dead_old, targets may be dirty or matched.
  std::vector<std::pair<NodeId, NodeId>> replacements;

  bool identical() const {
    return comparable && !po_reroute && dirty_new.empty() && dead_old.empty();
  }
};

/// Per-node simulation signatures the matching anchors on: eight rounds of
/// 64 fixed-seed random patterns per PI, folded per node (enough words that
/// functionally aliased nodes rarely need the structural tie-break). A
/// caller diffing many edits against one base signs it once.
std::vector<uint64_t> node_signatures(const Network& net);

/// Diffs \p base against \p edited (see file comment).
NetDiff diff_networks(const Network& base, const Network& edited);

/// Same, with both networks' `node_signatures` already computed.
NetDiff diff_networks(const Network& base, const std::vector<uint64_t>& base_signatures,
                      const Network& edited,
                      const std::vector<uint64_t>& edited_signatures);

}  // namespace t1sfq::service
