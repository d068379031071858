#include "network/cut_enumeration.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>
#include <tuple>

#include "benchmarks/random_net.hpp"
#include "benchmarks/suite.hpp"
#include "network/truth_table.hpp"

namespace t1sfq {
namespace {

/// Finds a cut of `node` with exactly the given leaves; returns its index + 1
/// (0 if absent).
std::size_t find_cut(std::span<const Cut> cs, std::vector<NodeId> leaves) {
  std::sort(leaves.begin(), leaves.end());
  for (std::size_t i = 0; i < cs.size(); ++i) {
    if (std::ranges::equal(cs[i].leaves(), leaves)) {
      return i + 1;
    }
  }
  return 0;
}

TEST(CutEnumeration, TrivialCutAlwaysPresent) {
  Network net;
  const NodeId a = net.add_pi();
  const NodeId b = net.add_pi();
  const NodeId g = net.add_and(a, b);
  net.add_po(g);
  const auto cuts = enumerate_cuts(net);
  EXPECT_TRUE(find_cut(cuts[a], {a}));
  EXPECT_TRUE(find_cut(cuts[g], {g}));
}

TEST(CutEnumeration, SingleGateCut) {
  Network net;
  const NodeId a = net.add_pi();
  const NodeId b = net.add_pi();
  const NodeId g = net.add_and(a, b);
  net.add_po(g);
  const auto cuts = enumerate_cuts(net);
  const std::size_t idx = find_cut(cuts[g], {a, b});
  ASSERT_TRUE(idx);
  EXPECT_EQ(cuts[g][idx - 1].function, 0x8u);  // AND2: minterm 3 only
}

TEST(CutEnumeration, FullAdderSumCutIsXor3) {
  Network net;
  const NodeId a = net.add_pi();
  const NodeId b = net.add_pi();
  const NodeId c = net.add_pi();
  const NodeId axb = net.add_xor(a, b);
  const NodeId sum = net.add_xor(axb, c);
  const NodeId carry = net.add_or(net.add_and(a, b), net.add_and(axb, c));
  net.add_po(sum);
  net.add_po(carry);
  const auto cuts = enumerate_cuts(net);

  const std::size_t s = find_cut(cuts[sum], {a, b, c});
  ASSERT_TRUE(s);
  // Function variables are ordered by ascending leaf id = (a, b, c).
  EXPECT_EQ(cuts[sum][s - 1].function, tt3::xor3().word(0));

  const std::size_t k = find_cut(cuts[carry], {a, b, c});
  ASSERT_TRUE(k);
  EXPECT_EQ(cuts[carry][k - 1].function, tt3::maj3().word(0));
}

TEST(CutEnumeration, RespectsCutSizeLimit) {
  Network net;
  std::vector<NodeId> pis;
  for (int i = 0; i < 4; ++i) {
    pis.push_back(net.add_pi());
  }
  const NodeId g1 = net.add_and(pis[0], pis[1]);
  const NodeId g2 = net.add_and(pis[2], pis[3]);
  const NodeId top = net.add_and(g1, g2);
  net.add_po(top);
  CutEnumerationParams p;
  p.cut_size = 3;
  const auto cuts = enumerate_cuts(net, p);
  for (const auto& cut : cuts[top]) {
    EXPECT_LE(cut.num_leaves, 3u);
  }
  // The 4-leaf cut {pis...} must be absent with cut_size 3.
  EXPECT_FALSE(find_cut(cuts[top], pis));
  // With cut_size 4 it appears, with the AND4 function (minterm 15 only).
  p.cut_size = 4;
  const auto cuts4 = enumerate_cuts(net, p);
  const std::size_t idx = find_cut(cuts4[top], pis);
  ASSERT_TRUE(idx);
  EXPECT_EQ(cuts4[top][idx - 1].function, uint64_t{1} << 15);
  // A cut never holds more than one word of table.
  p.cut_size = Cut::kMaxLeaves + 1;
  EXPECT_THROW(enumerate_cuts(net, p), std::invalid_argument);
}

TEST(CutEnumeration, NotGateCutFunctionIsComplemented) {
  Network net;
  const NodeId a = net.add_pi();
  const NodeId b = net.add_pi();
  const NodeId g = net.add_and(a, b);
  const NodeId n = net.add_not(g);
  net.add_po(n);
  const auto cuts = enumerate_cuts(net);
  const std::size_t idx = find_cut(cuts[n], {a, b});
  ASSERT_TRUE(idx);
  EXPECT_EQ(cuts[n][idx - 1].function, 0x7u);  // NAND, masked to four minterms
}

TEST(CutEnumeration, T1BodiesAreBarriers) {
  Network net;
  const NodeId a = net.add_pi();
  const NodeId b = net.add_pi();
  const NodeId c = net.add_pi();
  const NodeId t1 = net.add_t1(a, b, c);
  const NodeId s = net.add_t1_port(t1, T1PortFn::Sum);
  const NodeId top = net.add_and(s, a);
  net.add_po(top);
  const auto cuts = enumerate_cuts(net);
  // The port's only cut is trivial; the AND sees {s, a} but never {a, b, c...}.
  EXPECT_EQ(cuts[s].size(), 1u);
  EXPECT_TRUE(find_cut(cuts[top], {s, a}));
  EXPECT_FALSE(find_cut(cuts[top], {a, b, c}));
}

TEST(CutEnumeration, MaxCutsTruncates) {
  // A node over many reconvergent paths can have many cuts; max_cuts caps it.
  Network net;
  std::vector<NodeId> layer;
  for (int i = 0; i < 6; ++i) {
    layer.push_back(net.add_pi());
  }
  while (layer.size() > 1) {
    std::vector<NodeId> next;
    for (std::size_t i = 0; i + 1 < layer.size(); ++i) {
      next.push_back(net.add_xor(layer[i], layer[i + 1]));
    }
    layer = next;
  }
  net.add_po(layer[0]);
  CutEnumerationParams p;
  p.cut_size = 4;
  p.max_cuts = 3;
  const auto cuts = enumerate_cuts(net, p);
  for (NodeId id = 0; id < net.size(); ++id) {
    if (!net.is_dead(id)) {
      EXPECT_LE(cuts[id].size(), p.max_cuts + 1);  // +1 for the trivial cut
    }
  }
}

TEST(CutEnumeration, DominatesRelation) {
  const Cut small{{1, 2}, 2};
  const Cut big{{1, 2, 3}, 3};
  EXPECT_TRUE(small.dominates(big));
  EXPECT_FALSE(big.dominates(small));
}

// ---------------------------------------------------------------------------
// The engine against the enumerator it replaced.
// ---------------------------------------------------------------------------

struct RefCut {
  std::vector<NodeId> leaves;
  TruthTable function;
};

/// Re-expresses \p f (a function of \p cut_leaves) over \p merged, bit by bit.
TruthTable reference_expand(const TruthTable& f, const std::vector<NodeId>& cut_leaves,
                            const std::vector<NodeId>& merged) {
  std::vector<unsigned> pos(cut_leaves.size());
  for (std::size_t j = 0; j < cut_leaves.size(); ++j) {
    pos[j] = static_cast<unsigned>(std::lower_bound(merged.begin(), merged.end(), cut_leaves[j]) -
                                   merged.begin());
  }
  TruthTable r(static_cast<unsigned>(merged.size()));
  for (std::size_t i = 0; i < r.num_bits(); ++i) {
    std::size_t src = 0;
    for (std::size_t j = 0; j < pos.size(); ++j) {
      if ((i >> pos[j]) & 1) {
        src |= std::size_t{1} << j;
      }
    }
    r.set_bit(i, f.get_bit(src));
  }
  return r;
}

/// The enumerator the inline-cut engine replaced, kept as a test reference:
/// every fanin-cut combination in mixed-radix order (fanin 0 fastest) is
/// merged into a vector and expanded bit by bit into a std::map keyed by the
/// leaf vector, whose emplace keeps the first table of each leaf set; the
/// map's order, stably sorted by size and truncated to max_cuts, is the cut
/// order, followed by the trivial cut.
std::vector<std::vector<RefCut>> reference_enumerate_cuts(const Network& net,
                                                          const CutEnumerationParams& params) {
  std::vector<std::vector<RefCut>> result(net.size());
  for (const NodeId id : net.topo_order()) {
    const Node& n = net.node(id);
    std::vector<RefCut> cuts;
    const bool barrier = n.type == GateType::Pi || n.type == GateType::Const0 ||
                         n.type == GateType::Const1 || n.type == GateType::T1 ||
                         n.type == GateType::T1Port;
    if (!barrier) {
      const unsigned arity = n.num_fanins;
      std::vector<const std::vector<RefCut>*> fanin_cuts(arity);
      for (unsigned i = 0; i < arity; ++i) {
        fanin_cuts[i] = &result[n.fanin(i)];
      }
      std::vector<std::size_t> idx(arity, 0);
      std::map<std::vector<NodeId>, TruthTable> unique;
      bool done = arity == 0;
      while (!done) {
        std::vector<NodeId> merged;
        for (unsigned i = 0; i < arity && merged.size() <= params.cut_size; ++i) {
          const auto& leaves = (*fanin_cuts[i])[idx[i]].leaves;
          std::vector<NodeId> next;
          std::set_union(merged.begin(), merged.end(), leaves.begin(), leaves.end(),
                         std::back_inserter(next));
          merged = std::move(next);
        }
        if (merged.size() <= params.cut_size) {
          uint64_t w[3] = {0, 0, 0};
          for (unsigned i = 0; i < arity; ++i) {
            const RefCut& c = (*fanin_cuts[i])[idx[i]];
            w[i] = reference_expand(c.function, c.leaves, merged).word(0);
          }
          TruthTable f(static_cast<unsigned>(merged.size()));
          f.set_word(0, Network::eval_word(n.type, n.port, w[0], w[1], w[2]));
          unique.emplace(std::move(merged), std::move(f));
        }
        unsigned d = 0;
        for (; d < arity; ++d) {
          if (++idx[d] < fanin_cuts[d]->size()) {
            break;
          }
          idx[d] = 0;
        }
        done = d == arity;
      }
      for (auto& [leaves, f] : unique) {
        cuts.push_back(RefCut{leaves, f});
      }
      std::stable_sort(cuts.begin(), cuts.end(), [](const RefCut& a, const RefCut& b) {
        return a.leaves.size() < b.leaves.size();
      });
      if (cuts.size() > params.max_cuts) {
        cuts.resize(params.max_cuts);
      }
    }
    cuts.push_back(RefCut{{id}, TruthTable::nth_var(1, 0)});
    result[id] = std::move(cuts);
  }
  return result;
}

/// Every node's cut list — leaves, order and table — equals the reference.
void expect_cuts_match_reference(const Network& net, const CutEnumerationParams& params,
                                 const std::string& label) {
  const auto cuts = enumerate_cuts(net, params);
  const auto ref = reference_enumerate_cuts(net, params);
  ASSERT_EQ(cuts.size(), ref.size()) << label;
  std::size_t compared = 0;
  for (const NodeId id : net.topo_order()) {
    ASSERT_EQ(cuts[id].size(), ref[id].size()) << label << ", node " << id;
    for (std::size_t i = 0; i < ref[id].size(); ++i) {
      const Cut& got = cuts[id][i];
      const RefCut& want = ref[id][i];
      ASSERT_TRUE(std::ranges::equal(got.leaves(), want.leaves))
          << label << ", node " << id << ", cut " << i;
      ASSERT_EQ(got.function, want.function.word(0))
          << label << ", node " << id << ", cut " << i << " (reference 0x"
          << want.function.to_hex() << ")";
      ++compared;
    }
  }
  EXPECT_GT(compared, net.topo_order().size()) << label;  // more than trivial cuts
}

/// (cut_size, max_cuts): detection's 3 x 16, rewriting's 4 x 12, and the
/// detection ablation's max_cuts extremes 2 and 32.
constexpr std::pair<unsigned, unsigned> kShapes[] = {{3, 16}, {4, 12}, {3, 2}, {3, 32}};

CutEnumerationParams shape_params(unsigned shape) {
  CutEnumerationParams p;
  p.cut_size = kShapes[shape].first;
  p.max_cuts = kShapes[shape].second;
  return p;
}

std::string shape_name(unsigned shape) {
  return "k" + std::to_string(kShapes[shape].first) + "c" +
         std::to_string(kShapes[shape].second);
}

class CutEngineOnRandomNets
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

TEST_P(CutEngineOnRandomNets, MatchesReferenceEnumerator) {
  const auto [plant_every, shape] = GetParam();
  for (uint64_t seed = 1; seed <= 2; ++seed) {
    const Network net = bench::random_network(seed, 64, 1000, bench::RandomPoPolicy::AllSinks,
                                              plant_every);
    expect_cuts_match_reference(net, shape_params(shape), "seed " + std::to_string(seed));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CutEngineOnRandomNets,
    ::testing::Combine(::testing::Values(0u, 24u, 200u), ::testing::Range(0u, 4u)),
    [](const ::testing::TestParamInfo<std::tuple<unsigned, unsigned>>& info) {
      return "plant" + std::to_string(std::get<0>(info.param)) + "_" +
             shape_name(std::get<1>(info.param));
    });

class CutEngineOnTableOne : public ::testing::TestWithParam<unsigned> {};

TEST_P(CutEngineOnTableOne, MatchesReferenceEnumerator) {
  for (const auto& bc : bench::make_suite()) {
    expect_cuts_match_reference(bc.generate(), shape_params(GetParam()), bc.name);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, CutEngineOnTableOne, ::testing::Range(0u, 4u),
                         [](const ::testing::TestParamInfo<unsigned>& info) {
                           return shape_name(info.param);
                         });

TEST(CutEnumeration, RepeatedRedundantLeafSetKeepsFirstEmittedTable) {
  // g = a & b and p = a | g. The leaf set {a, b, g} is not irredundant (g
  // lies in the cone of a and b), and n = g & p (fanins sorted by id: g is
  // fanin 0) reaches it twice: first as (g over {g}) x (p over {a, b}), then
  // as (g over {a, b}) x (p over {a, g}).
  Network net;
  const NodeId a = net.add_pi();
  const NodeId b = net.add_pi();
  const NodeId g = net.add_and(a, b);
  const NodeId p = net.add_or(a, g);
  const NodeId n = net.add_and(p, g);
  net.add_po(n);
  ASSERT_EQ(net.node(n).fanin(0), g);
  ASSERT_TRUE(a < b && b < g);  // variables (a, b, g) = (x0, x1, x2)

  const auto cuts = enumerate_cuts(net);
  const std::size_t idx = find_cut(cuts[n], {a, b, g});
  ASSERT_TRUE(idx);
  const uint64_t first = 0xa0;  // g & a = x2 x0
  const uint64_t later = 0x88;  // (a & b) & (a | g) = x0 x1
  // The two tables differ, but only on minterms where g != a & b.
  EXPECT_NE(first, later);
  for (unsigned m = 0; m < 8; ++m) {
    const bool care = ((m >> 2) & 1) == ((m & 1) & ((m >> 1) & 1));
    if (care) {
      EXPECT_EQ((first >> m) & 1, (later >> m) & 1) << "minterm " << m;
    }
  }
  EXPECT_EQ(cuts[n][idx - 1].function, first);
  expect_cuts_match_reference(net, CutEnumerationParams{}, "redundant-leaf net");
}

}  // namespace
}  // namespace t1sfq
