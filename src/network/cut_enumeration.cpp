#include "network/cut_enumeration.hpp"

#include <algorithm>
#include <stdexcept>

namespace t1sfq {

bool Cut::dominates(const Cut& other) const {
  const auto mine = leaves();
  const auto theirs = other.leaves();
  return std::includes(theirs.begin(), theirs.end(), mine.begin(), mine.end());
}

namespace {

/// Minterms where variable v (< 6) is 1, within one word.
constexpr uint64_t kVarMask[Cut::kMaxLeaves] = {
    0xaaaaaaaaaaaaaaaaULL, 0xccccccccccccccccULL, 0xf0f0f0f0f0f0f0f0ULL,
    0xff00ff00ff00ff00ULL, 0xffff0000ffff0000ULL, 0xffffffff00000000ULL,
};

/// Sorted union of \p a and \p b into \p out; false as soon as the union
/// exceeds \p cap leaves.
bool merge_leaves(std::span<const NodeId> a, std::span<const NodeId> b, unsigned cap,
                  Cut& out) {
  std::size_t i = 0, j = 0;
  unsigned k = 0;
  while (i < a.size() || j < b.size()) {
    if (k == cap) {
      return false;
    }
    if (j == b.size() || (i < a.size() && a[i] < b[j])) {
      out.leaf_ids[k++] = a[i++];
    } else {
      if (i < a.size() && a[i] == b[j]) {
        ++i;
      }
      out.leaf_ids[k++] = b[j++];
    }
  }
  out.num_leaves = static_cast<uint8_t>(k);
  return true;
}

/// Swaps variables i < j of a 6-variable table.
uint64_t swap_vars(uint64_t f, unsigned i, unsigned j) {
  const unsigned shift = (1u << j) - (1u << i);
  const uint64_t m = kVarMask[i] & ~kVarMask[j];  // x_i = 1, x_j = 0
  return (f & ~(m | (m << shift))) | ((f & m) << shift) | ((f >> shift) & m);
}

/// Re-expresses the table of \p sub over the leaves of \p super (a sorted
/// superset) as a 6-variable table; variables at and above super's size are
/// don't-cares.
uint64_t stretch(const Cut& sub, const Cut& super) {
  uint64_t f = sub.function;
  for (unsigned v = sub.num_leaves; v < Cut::kMaxLeaves; ++v) {
    f |= f << (1u << v);  // replicate: the unused variables become don't-cares
  }
  // Move each variable to its leaf's position in super, highest first, so
  // the target position always holds a don't-care.
  unsigned p = super.num_leaves;
  for (unsigned k = sub.num_leaves; k-- > 0;) {
    do {
      --p;
    } while (super.leaf_ids[p] != sub.leaf_ids[k]);
    if (p != k) {
      f = swap_vars(f, k, p);
    }
  }
  return f;
}

uint64_t table_mask(unsigned num_vars) {
  return num_vars >= 6 ? ~uint64_t{0} : (uint64_t{1} << (1u << num_vars)) - 1;
}

Cut trivial_cut(NodeId id) {
  Cut c;
  c.leaf_ids[0] = id;
  c.num_leaves = 1;
  c.function = 0x2;  // x0
  return c;
}

/// A merged leaf set, the fanin-cut combination that produced it and its
/// place in the emission order.
struct Candidate {
  Cut cut;
  std::array<uint32_t, 3> from{};
  uint32_t seq = 0;
};

/// (size, leaves, emission index): a total order, so std::sort keeps the
/// first-emitted candidate of each leaf set in front, as a stable sort by
/// (size, leaves) would, without a temporary buffer.
bool candidate_less(const Candidate& a, const Candidate& b) {
  if (a.cut.num_leaves != b.cut.num_leaves) {
    return a.cut.num_leaves < b.cut.num_leaves;
  }
  for (unsigned i = 0; i < a.cut.num_leaves; ++i) {
    if (a.cut.leaf_ids[i] != b.cut.leaf_ids[i]) {
      return a.cut.leaf_ids[i] < b.cut.leaf_ids[i];
    }
  }
  return a.seq < b.seq;
}

bool same_leaves(const Cut& a, const Cut& b) {
  return a.num_leaves == b.num_leaves &&
         std::equal(a.leaf_ids.begin(), a.leaf_ids.begin() + a.num_leaves, b.leaf_ids.begin());
}

}  // namespace

NetworkCuts enumerate_cuts(const Network& net, const CutEnumerationParams& params) {
  if (params.cut_size > Cut::kMaxLeaves) {
    throw std::invalid_argument("enumerate_cuts: cut_size exceeds Cut::kMaxLeaves");
  }
  NetworkCuts result;
  result.runs_.resize(net.size());
  std::vector<Candidate> candidates;
  std::vector<Cut> kept;  // the node's cuts until the fanin views are done
  // Stands in for the cut list of an absent fanin: one cut with no leaves.
  const Cut no_fanin[1] = {};

  for (const NodeId id : net.topo_order()) {
    const Node& n = net.node(id);
    const auto first = static_cast<uint32_t>(result.cuts_.size());
    const bool barrier = n.type == GateType::Pi || n.type == GateType::Const0 ||
                         n.type == GateType::Const1 || n.type == GateType::T1 ||
                         n.type == GateType::T1Port;

    if (!barrier && n.num_fanins > 0) {
      const unsigned arity = n.num_fanins;
      std::array<std::span<const Cut>, 3> fanin_cuts{no_fanin, no_fanin, no_fanin};
      for (unsigned i = 0; i < arity; ++i) {
        fanin_cuts[i] = result[n.fanin(i)];
      }
      const auto [c0, c1, c2] = fanin_cuts;

      // Cross product in mixed-radix order, fanin 0 fastest: the emission
      // order that decides which table a repeated leaf set keeps.
      candidates.clear();
      Cut u12;
      Candidate cand;
      for (uint32_t i2 = 0; i2 < c2.size(); ++i2) {
        for (uint32_t i1 = 0; i1 < c1.size(); ++i1) {
          if (!merge_leaves(c1[i1].leaves(), c2[i2].leaves(), params.cut_size, u12)) {
            continue;
          }
          for (uint32_t i0 = 0; i0 < c0.size(); ++i0) {
            if (merge_leaves(c0[i0].leaves(), u12.leaves(), params.cut_size, cand.cut)) {
              cand.from = {i0, i1, i2};
              cand.seq = static_cast<uint32_t>(candidates.size());
              candidates.push_back(cand);
            }
          }
        }
      }

      // Prefer small cuts; keep the first-emitted cut of each leaf set and at
      // most max_cuts of them, and only then compute their tables.
      std::sort(candidates.begin(), candidates.end(), candidate_less);
      kept.clear();
      for (std::size_t k = 0; k < candidates.size() && kept.size() < params.max_cuts; ++k) {
        if (k > 0 && same_leaves(candidates[k].cut, candidates[k - 1].cut)) {
          continue;
        }
        Cut cut = candidates[k].cut;
        std::array<uint64_t, 3> words{};
        for (unsigned i = 0; i < arity; ++i) {
          words[i] = stretch(fanin_cuts[i][candidates[k].from[i]], cut);
        }
        cut.function = Network::eval_word(n.type, n.port, words[0], words[1], words[2]) &
                       table_mask(cut.num_leaves);
        kept.push_back(cut);
      }
      // Appending may move the array the fanin views point into.
      result.cuts_.insert(result.cuts_.end(), kept.begin(), kept.end());
    }

    result.cuts_.push_back(trivial_cut(id));
    result.runs_[id] = {first, static_cast<uint32_t>(result.cuts_.size()) - first};
  }
  return result;
}

}  // namespace t1sfq
