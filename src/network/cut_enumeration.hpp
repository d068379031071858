#pragma once
/// \file cut_enumeration.hpp
/// \brief Priority k-cut enumeration with truth-table computation (paper §II-A).
///
/// Classic bottom-up cut enumeration (Cong et al., FPGA'99 — reference [8] of
/// the paper) in the priority-cut form of Mishchenko et al. ("Combinational
/// and sequential mapping with priority cuts", ICCAD 2007): the cut set of a
/// node is the cross product of its fanins' cut sets, filtered to at most
/// `cut_size` leaves, deduplicated, pruned to the `max_cuts` best cuts and
/// always ending with the trivial cut {node}. Each cut carries the truth
/// table of the root as a function of the cut leaves, which is exactly what
/// Boolean matching against the T1 function set (and the rewriting database)
/// consumes.
///
/// Representation. A `Cut` is an inline value: at most `Cut::kMaxLeaves` (6)
/// leaf ids sorted ascending, and one 64-bit truth-table word over them
/// (leaf i = variable i; bit m holds the value on minterm m; the bits at and
/// above 2^size are zero). Nothing in a cut lives on the heap.
///
/// Order. A node's non-trivial cuts are sorted by (size, leaves), leaves
/// compared lexicographically, and only the first `max_cuts` are kept.
///
/// First-emitted rule. The cross product visits fanin-cut combinations in
/// mixed-radix order, fanin 0 fastest. When several combinations yield the
/// same leaf set, the cut keeps the table of the first one. The tables can
/// differ: when one leaf lies in another's fanin cone (the leaf set is not
/// irredundant), each combination fixes the function on minterms that cannot
/// occur in its own way, so the tables agree on the care set only.
///
/// Engine. Leaves are merged into inline arrays, and a merge stops as soon as
/// the union exceeds `cut_size` (fanins 1 and 2 are merged once, before the
/// loop over fanin 0). Candidates go into one buffer reused across nodes and
/// are sorted by (size, leaves, emission index), which is a stable sort by
/// (size, leaves); truth tables are computed only for the kept cuts, from the
/// fanin cuts that first produced them. All cuts of a network live in one
/// flat array, so neither a combination nor a node allocates.

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "network/network.hpp"

namespace t1sfq {

struct Cut {
  static constexpr unsigned kMaxLeaves = 6;

  std::array<NodeId, kMaxLeaves> leaf_ids{};  ///< sorted ascending; first num_leaves valid
  uint8_t num_leaves = 0;
  uint64_t function = 0;  ///< root over leaves (var i = leaf_ids[i]); bits >= 2^num_leaves zero

  std::span<const NodeId> leaves() const { return {leaf_ids.data(), num_leaves}; }
  /// True if every leaf of *this is also a leaf of \p other.
  bool dominates(const Cut& other) const;
};

struct CutEnumerationParams {
  unsigned cut_size = 3;   ///< max leaves per cut, at most Cut::kMaxLeaves (T1: 3 data inputs)
  unsigned max_cuts = 16;  ///< priority cuts kept per node (trivial cut not counted)
};

/// The cuts of a whole network, stored flat: every node's cuts are one
/// contiguous run of a single array, its non-trivial cuts in (size, leaves)
/// order and then the trivial cut. Index = NodeId; dead nodes have none.
class NetworkCuts {
public:
  std::size_t size() const { return runs_.size(); }
  std::span<const Cut> operator[](NodeId id) const {
    return std::span<const Cut>(cuts_).subspan(runs_[id].first, runs_[id].count);
  }

private:
  friend NetworkCuts enumerate_cuts(const Network& net, const CutEnumerationParams& params);

  struct Run {
    uint32_t first = 0;
    uint32_t count = 0;
  };
  std::vector<Cut> cuts_;
  std::vector<Run> runs_;
};

/// Enumerates cuts for every live node. T1 bodies and ports act as cut
/// barriers (their cut set contains only the trivial cut): T1 regions, once
/// committed, are not re-decomposed. Throws std::invalid_argument when
/// `cut_size` exceeds Cut::kMaxLeaves.
NetworkCuts enumerate_cuts(const Network& net, const CutEnumerationParams& params = {});

}  // namespace t1sfq
