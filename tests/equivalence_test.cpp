#include "network/equivalence.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "benchmarks/random_net.hpp"
#include "core/flow.hpp"
#include "network/simulation.hpp"
#include "opt/balancing.hpp"
#include "opt/cut_rewriting.hpp"
#include "opt/resubstitution.hpp"

namespace t1sfq {
namespace {

/// Test-only reference: both networks Tseitin-encoded side by side, one miter
/// solve per PO pair (\p conflict_budget per output, 0 = unlimited).
EquivalenceCheck reference_miter(const Network& a, const Network& b,
                                 uint64_t conflict_budget = 100000) {
  EquivalenceCheck out;
  if (a.num_pis() != b.num_pis() || a.num_pos() != b.num_pos()) {
    out.result = EquivalenceResult::NotEquivalent;
    return out;
  }
  SatSolver solver;
  std::vector<Lit> pi_lits;
  const auto la = encode_network(a, solver, pi_lits);
  const auto lb = encode_network(b, solver, pi_lits);
  for (std::size_t p = 0; p < a.num_pos(); ++p) {
    const Lit ya = la[a.po(p)];
    const Lit yb = lb[b.po(p)];
    const Lit diff = pos_lit(solver.new_var());  // diff <=> ya xor yb
    solver.add_clause({negate(diff), ya, yb});
    solver.add_clause({negate(diff), negate(ya), negate(yb)});
    solver.add_clause({diff, negate(ya), yb});
    solver.add_clause({diff, ya, negate(yb)});
    const SatResult r = solver.solve({diff}, conflict_budget);
    if (r == SatResult::Sat) {
      out.result = EquivalenceResult::NotEquivalent;
      out.failing_output = p;
      for (const Lit pl : pi_lits) {
        out.counterexample.push_back(solver.model_value(lit_var(pl)) ^ lit_sign(pl));
      }
      return out;
    }
    if (r == SatResult::Unknown) {
      out.result = EquivalenceResult::Unknown;
      return out;
    }
  }
  out.result = EquivalenceResult::Equivalent;
  return out;
}

/// A NotEquivalent verdict must carry a PI assignment on which the two
/// networks differ at `failing_output`.
void expect_distinguishes(const Network& a, const Network& b, const EquivalenceCheck& r) {
  ASSERT_EQ(r.result, EquivalenceResult::NotEquivalent);
  ASSERT_EQ(r.counterexample.size(), a.num_pis());
  ASSERT_LT(r.failing_output, a.num_pos());
  EXPECT_NE(simulate(a, r.counterexample)[r.failing_output],
            simulate(b, r.counterexample)[r.failing_output]);
}

/// The engine agrees with the reference; a difference comes with a vector
/// that shows it, and a one-conflict budget may leave it open, never prove it.
void expect_agrees_with_reference(const Network& a, const Network& b) {
  const EquivalenceCheck ref = reference_miter(a, b);
  ASSERT_NE(ref.result, EquivalenceResult::Unknown) << "reference ran out of budget";
  const EquivalenceCheck got = check_equivalence_sat(a, b, 100000);
  EXPECT_EQ(got.result, ref.result);
  if (got.result == EquivalenceResult::NotEquivalent) {
    expect_distinguishes(a, b, got);
  }
  if (ref.result == EquivalenceResult::NotEquivalent) {
    EXPECT_NE(check_equivalence_sat(a, b, 1).result, EquivalenceResult::Equivalent);
  }
}

Network ripple_adder(int bits) {
  Network net("rca");
  std::vector<NodeId> a, b;
  for (int i = 0; i < bits; ++i) a.push_back(net.add_pi());
  for (int i = 0; i < bits; ++i) b.push_back(net.add_pi());
  NodeId carry = net.get_const0();
  for (int i = 0; i < bits; ++i) {
    const NodeId axb = net.add_xor(a[i], b[i]);
    net.add_po(net.add_xor(axb, carry));
    carry = net.add_or(net.add_and(a[i], b[i]), net.add_and(axb, carry));
  }
  net.add_po(carry);
  return net;
}

Network maj_adder(int bits) {
  Network net("maj_rca");
  std::vector<NodeId> a, b;
  for (int i = 0; i < bits; ++i) a.push_back(net.add_pi());
  for (int i = 0; i < bits; ++i) b.push_back(net.add_pi());
  NodeId carry = net.get_const0();
  for (int i = 0; i < bits; ++i) {
    net.add_po(net.add_xor3(a[i], b[i], carry));
    carry = net.add_maj(a[i], b[i], carry);
  }
  net.add_po(carry);
  return net;
}

TEST(Equivalence, IdenticalNetworksAreEquivalent) {
  const Network a = ripple_adder(4);
  const auto r = check_equivalence_sat(a, a);
  EXPECT_EQ(r.result, EquivalenceResult::Equivalent);
}

TEST(Equivalence, StructurallyDifferentAddersAreEquivalent) {
  const Network a = ripple_adder(6);
  const Network b = maj_adder(6);
  const auto r = check_equivalence_sat(a, b);
  EXPECT_EQ(r.result, EquivalenceResult::Equivalent);
}

TEST(Equivalence, T1FullAdderEquivalentToGates) {
  Network gates;
  {
    const NodeId a = gates.add_pi();
    const NodeId b = gates.add_pi();
    const NodeId c = gates.add_pi();
    const NodeId axb = gates.add_xor(a, b);
    gates.add_po(gates.add_xor(axb, c));
    gates.add_po(gates.add_or(gates.add_and(a, b), gates.add_and(axb, c)));
  }
  Network t1net;
  {
    const NodeId a = t1net.add_pi();
    const NodeId b = t1net.add_pi();
    const NodeId c = t1net.add_pi();
    const NodeId t1 = t1net.add_t1(a, b, c);
    t1net.add_po(t1net.add_t1_port(t1, T1PortFn::Sum));
    t1net.add_po(t1net.add_t1_port(t1, T1PortFn::Carry));
  }
  EXPECT_EQ(check_equivalence_sat(gates, t1net).result, EquivalenceResult::Equivalent);
}

TEST(Equivalence, DetectsSingleBitError) {
  const Network a = ripple_adder(5);
  Network b = ripple_adder(5);
  // Corrupt: replace the last PO (carry-out) with AND of the top bits.
  Network c("bad");
  std::vector<NodeId> x, y;
  for (int i = 0; i < 5; ++i) x.push_back(c.add_pi());
  for (int i = 0; i < 5; ++i) y.push_back(c.add_pi());
  NodeId carry = c.get_const0();
  for (int i = 0; i < 5; ++i) {
    const NodeId axb = c.add_xor(x[i], y[i]);
    c.add_po(c.add_xor(axb, carry));
    carry = i == 3 ? c.add_and(x[i], y[i])  // dropped the propagate term
                   : c.add_or(c.add_and(x[i], y[i]), c.add_and(axb, carry));
  }
  c.add_po(carry);
  const auto r = check_equivalence_sat(a, c);
  ASSERT_EQ(r.result, EquivalenceResult::NotEquivalent);
  // The counterexample must actually distinguish the two networks.
  const auto oa = simulate(a, r.counterexample);
  const auto oc = simulate(c, r.counterexample);
  EXPECT_NE(oa, oc);
}

TEST(Equivalence, CounterexampleFromSimulationPath) {
  Network a, b;
  const NodeId pa = a.add_pi();
  a.add_po(a.get_const0());
  a.add_po(pa);
  const NodeId pb = b.add_pi();
  b.add_po(b.get_const0());
  b.add_po(b.add_not(pb));
  const auto r = check_equivalence(a, b);
  expect_distinguishes(a, b, r);
  EXPECT_EQ(r.failing_output, 1u);
}

TEST(Equivalence, InterfaceMismatchRejected) {
  Network a, b;
  a.add_pi();
  a.add_po(a.get_const0());
  b.add_pi();
  b.add_pi();
  b.add_po(b.get_const0());
  EXPECT_EQ(check_equivalence_sat(a, b).result, EquivalenceResult::NotEquivalent);
}

TEST(Equivalence, ConstantsAndDeadNodesHandled) {
  Network a;
  const NodeId x = a.add_pi();
  const NodeId junk = a.add_and(x, a.get_const0());  // folds to const0
  (void)junk;
  a.add_po(a.get_const0());
  Network b;
  const NodeId y = b.add_pi();
  b.add_po(b.add_and(y, b.add_not(y)));  // folds to const0
  EXPECT_EQ(check_equivalence_sat(a, b).result, EquivalenceResult::Equivalent);
}

TEST(Equivalence, DffTransparencyInSatEncoding) {
  Network a = ripple_adder(3);
  Network b("dffed");
  std::vector<NodeId> x, y;
  for (int i = 0; i < 3; ++i) x.push_back(b.add_pi());
  for (int i = 0; i < 3; ++i) y.push_back(b.add_pi());
  NodeId carry = b.get_const0();
  for (int i = 0; i < 3; ++i) {
    const NodeId axb = b.add_xor(x[i], y[i]);
    b.add_po(b.add_dff(b.add_xor(axb, carry)));
    carry = b.add_dff(b.add_or(b.add_and(x[i], y[i]), b.add_and(axb, carry)));
  }
  b.add_po(carry);
  EXPECT_EQ(check_equivalence_sat(a, b).result, EquivalenceResult::Equivalent);
}

TEST(Equivalence, MediumAdderCompletesQuickly) {
  const Network a = ripple_adder(16);
  const Network b = maj_adder(16);
  const auto r = check_equivalence(a, b);
  EXPECT_EQ(r.result, EquivalenceResult::Equivalent);
}

// -- The engine against the per-PO reference -----------------------------------

/// Rebuilds \p net with node \p swap's And2/Or2 type exchanged (kNullNode: no
/// swap) and PO \p invert inverted (num_pos(): none).
Network mutate(const Network& net, NodeId swap, std::size_t invert) {
  Network out(net.name() + ".mut");
  std::vector<NodeId> to(net.size(), kNullNode);
  for (const NodeId id : net.topo_order()) {
    const Node& n = net.node(id);
    std::vector<NodeId> fans;
    for (unsigned i = 0; i < n.num_fanins; ++i) fans.push_back(to[n.fanin(i)]);
    switch (n.type) {
      case GateType::Pi: to[id] = out.add_pi(); break;
      case GateType::Const0: to[id] = out.get_const0(); break;
      case GateType::Const1: to[id] = out.get_const1(); break;
      case GateType::T1: to[id] = out.add_t1(fans[0], fans[1], fans[2]); break;
      case GateType::T1Port: to[id] = out.add_t1_port(fans[0], n.port); break;
      default: {
        GateType type = n.type;
        if (id == swap) type = type == GateType::And2 ? GateType::Or2 : GateType::And2;
        to[id] = out.add_gate(type, fans);
      }
    }
  }
  for (std::size_t p = 0; p < net.num_pos(); ++p) {
    out.add_po(p == invert ? out.add_not(to[net.po(p)]) : to[net.po(p)]);
  }
  return out;
}

/// Every (after, before) pair the PassManager guard checks on \p input.
std::vector<std::pair<Network, Network>> guard_pairs(Network net, const OptParams& op) {
  const CostModel model;
  std::vector<std::unique_ptr<Pass>> passes;
  passes.push_back(std::make_unique<CutRewritingPass>(model, op));
  passes.push_back(std::make_unique<BalancingPass>(model, op));
  passes.push_back(std::make_unique<ResubstitutionPass>(model, op));
  std::vector<std::pair<Network, Network>> pairs;
  for (unsigned round = 0; round < op.rounds; ++round) {
    std::size_t round_applied = 0;
    for (const auto& pass : passes) {
      Network before = net;
      const std::size_t applied = pass->run(net);
      net.sweep_dangling();
      net = net.cleanup();
      if (applied > 0) {
        pairs.emplace_back(net, std::move(before));
      }
      round_applied += applied;
    }
    if (round_applied == 0) break;
  }
  return pairs;
}

class EngineOnGuardPairs : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineOnGuardPairs, AgreesWithReferenceOnPairsAndMutants) {
  const Network input = bench::random_network(GetParam(), 125, 2000,
                                              bench::RandomPoPolicy::AllSinks, 24);
  const auto pairs = guard_pairs(input.cleanup(), OptParams{});
  ASSERT_FALSE(pairs.empty());
  for (const auto& [after, before] : pairs) {
    SCOPED_TRACE("seed " + std::to_string(GetParam()));
    expect_agrees_with_reference(after, before);
    EXPECT_EQ(check_equivalence_sat(after, before).result, EquivalenceResult::Equivalent);
    // A one-conflict budget may leave the pair open, never refute it.
    EXPECT_NE(check_equivalence_sat(after, before, 1).result,
              EquivalenceResult::NotEquivalent);

    NodeId and2 = kNullNode;
    std::size_t seen = 0;
    for (const NodeId id : after.topo_order()) {
      if (after.node(id).type == GateType::And2 && seen++ == GetParam() % 7) and2 = id;
    }
    ASSERT_NE(and2, kNullNode);
    expect_agrees_with_reference(mutate(after, and2, after.num_pos()), before);
    expect_agrees_with_reference(mutate(after, kNullNode, after.num_pos() / 2), before);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineOnGuardPairs, ::testing::Values(3u, 5u, 8u));

TEST(EngineVsReference, T1MappedNetworkCoversEveryPortFunction) {
  Network net("five_ports");
  std::vector<NodeId> pis;
  for (int i = 0; i < 9; ++i) pis.push_back(net.add_pi());
  for (int g = 0; g < 3; ++g) {
    const NodeId a = pis[3 * g], b = pis[3 * g + 1], c = pis[3 * g + 2];
    const NodeId maj = net.add_maj(a, b, c);
    const NodeId or3 = net.add_gate(GateType::Or3, {a, b, c});
    net.add_po(net.add_xor3(a, b, c));
    net.add_po(maj);
    net.add_po(or3);
    net.add_po(net.add_not(maj));
    net.add_po(net.add_not(or3));
  }
  const FlowResult res = run_flow(net);
  std::vector<int> ports(5, 0);
  for (const NodeId id : res.mapped.topo_order()) {
    if (res.mapped.node(id).type == GateType::T1Port) ++ports[int(res.mapped.node(id).port)];
  }
  for (int fn = 0; fn < 5; ++fn) {
    EXPECT_GT(ports[fn], 0) << to_string(static_cast<T1PortFn>(fn));
  }
  expect_agrees_with_reference(res.mapped, net);
  EXPECT_EQ(check_equivalence(res.mapped, net).result, EquivalenceResult::Equivalent);
  EXPECT_NE(check_equivalence_sat(res.mapped, net, 1).result, EquivalenceResult::NotEquivalent);
  // Each port function inverted in turn is refuted with a witness.
  for (std::size_t p = 0; p < 5; ++p) {
    expect_agrees_with_reference(mutate(res.mapped, kNullNode, p), net);
  }
}

/// \p net with PO \p p XOR-ed with the AND of \p nodes in alternating
/// polarity: 1 on about one input vector in 2^|nodes|, and on neither the
/// all-0 nor the all-1 corner pattern when \p nodes are PIs.
Network xor_rare_cube(const Network& net, std::size_t p, const std::vector<NodeId>& nodes) {
  Network out = net;
  NodeId cube = kNullNode;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const NodeId lit = i % 2 ? out.add_not(nodes[i]) : nodes[i];
    cube = cube == kNullNode ? lit : out.add_and(cube, lit);
  }
  out.set_po(p, out.add_xor(out.po(p), cube));
  return out;
}

TEST(EngineVsReference, RefutesADifferenceSimulationMisses) {
  const Network a =
      bench::random_network(21, 125, 2000, bench::RandomPoPolicy::AllSinks, 24);
  std::vector<std::size_t> by_depth(a.num_pos());
  for (std::size_t p = 0; p < by_depth.size(); ++p) by_depth[p] = p;
  const auto level = a.levels();
  std::stable_sort(by_depth.begin(), by_depth.end(), [&](std::size_t x, std::size_t y) {
    return level[a.po(x)] > level[a.po(y)];
  });
  const std::size_t deep = by_depth[0];
  // A cube over 24 PIs, whose refutation fits in a pair-proof window, and one
  // over the next 24 deepest outputs, whose cones overflow every window.
  std::vector<NodeId> pis(a.pis().begin(), a.pis().begin() + 24);
  std::vector<NodeId> outs;
  for (std::size_t i = 1; outs.size() < 24; ++i) {
    if (std::find(outs.begin(), outs.end(), a.po(by_depth[i])) == outs.end()) {
      outs.push_back(a.po(by_depth[i]));
    }
  }
  for (const auto& cube : {pis, outs}) {
    const Network b = xor_rare_cube(a, deep, cube);
    ASSERT_TRUE(random_simulation_equal(a, b, 8));
    ASSERT_EQ(reference_miter(a, b).result, EquivalenceResult::NotEquivalent);
    const EquivalenceCheck r = check_equivalence(a, b);
    expect_distinguishes(a, b, r);
    EXPECT_EQ(r.failing_output, deep);
    EXPECT_NE(check_equivalence_sat(a, b, 1).result, EquivalenceResult::Equivalent);
  }
}

}  // namespace
}  // namespace t1sfq
