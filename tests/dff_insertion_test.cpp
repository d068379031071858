#include "core/dff_insertion.hpp"

#include <gtest/gtest.h>

#include "benchmarks/arith.hpp"
#include "core/t1_detection.hpp"
#include "sfq/pulse_sim.hpp"

namespace t1sfq {
namespace {

PhaseAssignment assign(const Network& net, unsigned phases) {
  return assign_phases(net, MultiphaseConfig{phases});
}

TEST(DffInsertion, ChainGetsNoDffs) {
  Network net;
  NodeId prev = net.add_pi();
  const NodeId o = net.add_pi();
  for (int i = 0; i < 5; ++i) {
    prev = net.add_xor(prev, o);
  }
  net.add_po(prev);
  const MultiphaseConfig clk{8};
  const auto pa = assign_phases(net, clk);
  const auto phys = insert_dffs(net, pa, clk);
  EXPECT_EQ(phys.num_dffs, pa.estimated_dffs);
  EXPECT_TRUE(pulse_verify(phys.net, phys.stage, clk, net));
}

TEST(DffInsertion, SinglePhasePathBalancing) {
  // Classic: and(x, chain(x)) in single-phase needs one DFF per skipped level.
  Network net;
  const NodeId x = net.add_pi();
  const NodeId o = net.add_pi();
  NodeId deep = x;
  for (int i = 0; i < 4; ++i) {
    deep = net.add_xor(deep, o);
  }
  net.add_po(net.add_and(x, deep));
  const MultiphaseConfig clk{1};
  const auto pa = assign(net, 1);
  const auto phys = insert_dffs(net, pa, clk);
  EXPECT_EQ(static_cast<int64_t>(phys.num_dffs), pa.estimated_dffs);
  EXPECT_TRUE(pulse_verify(phys.net, phys.stage, clk, net));
}

TEST(DffInsertion, SpineIsSharedAcrossFanouts) {
  // Driver feeding consumers at increasing depths shares one chain.
  Network net;
  const NodeId x = net.add_pi();
  const NodeId o = net.add_pi();
  NodeId deep = o;
  std::vector<NodeId> taps;
  for (int i = 0; i < 8; ++i) {
    deep = net.add_xor(deep, x);  // x feeds every level
    taps.push_back(deep);
  }
  net.add_po(deep);
  const MultiphaseConfig clk{1};
  const auto pa = assign(net, 1);
  const auto phys = insert_dffs(net, pa, clk);
  // x's spine serves all 8 consumers: 7 DFFs, not sum over edges (~21).
  EXPECT_EQ(phys.num_dffs, 7u);
  EXPECT_TRUE(pulse_verify(phys.net, phys.stage, clk, net));
}

TEST(DffInsertion, T1LandingStagesAreDistinct) {
  Network net;
  const NodeId a = net.add_pi();
  const NodeId b = net.add_pi();
  const NodeId c = net.add_pi();
  const SumCarry fa = full_adder(net, a, b, c);
  net.add_po(fa.sum);
  net.add_po(fa.carry);
  detect_and_replace_t1(net, CostModel{});
  net = net.cleanup();
  ASSERT_EQ(net.count_of(GateType::T1), 1u);

  const MultiphaseConfig clk{4};
  const auto pa = assign(net, 4);
  ASSERT_TRUE(pa.feasible);
  const auto phys = insert_dffs(net, pa, clk);

  // Find the T1 body in the physical netlist and check paper eq. 5: the
  // last elements feeding its three inputs sit at pairwise distinct stages.
  for (NodeId id = 0; id < phys.net.size(); ++id) {
    if (phys.net.is_dead(id) || phys.net.node(id).type != GateType::T1) continue;
    const Node& body = phys.net.node(id);
    std::vector<Stage> arrivals;
    for (unsigned i = 0; i < 3; ++i) {
      arrivals.push_back(phys.stage[body.fanin(i)]);
    }
    std::sort(arrivals.begin(), arrivals.end());
    EXPECT_NE(arrivals[0], arrivals[1]);
    EXPECT_NE(arrivals[1], arrivals[2]);
    // All strictly inside the T1's clock cycle.
    for (const Stage s : arrivals) {
      EXPECT_LT(s, phys.stage[id]);
      EXPECT_GT(s, phys.stage[id] - static_cast<Stage>(clk.phases));
    }
  }
  EXPECT_TRUE(pulse_verify(phys.net, phys.stage, clk, net));
}

TEST(DffInsertion, PhysicalAdderIsPulseCorrect) {
  Network net;
  const Word a = add_pi_word(net, 4, "a");
  const Word b = add_pi_word(net, 4, "b");
  add_po_word(net, ripple_carry_adder(net, a, b, net.get_const0()), "s");
  const Network golden = net;
  detect_and_replace_t1(net, CostModel{});
  net = net.cleanup();
  const MultiphaseConfig clk{4};
  const auto pa = assign(net, 4);
  const auto phys = insert_dffs(net, pa, clk);
  EXPECT_TRUE(pulse_verify(phys.net, phys.stage, clk, golden));
}

TEST(DffInsertion, DffCountMatchesPlan) {
  Network net;
  const Word a = add_pi_word(net, 5, "a");
  const Word b = add_pi_word(net, 5, "b");
  add_po_word(net, ripple_carry_adder(net, a, b, net.get_const0()), "s");
  for (unsigned phases : {1u, 2u, 4u}) {
    const MultiphaseConfig clk{phases};
    const auto pa = assign(net, phases);
    const auto plan = plan_dffs(net, pa.stage, pa.output_stage, clk);
    const auto phys = insert_dffs(net, pa, clk);
    // Landing-DFF sharing can only make the realization cheaper than the plan.
    EXPECT_LE(phys.num_dffs, static_cast<std::size_t>(plan.total_dffs()));
    EXPECT_GE(phys.num_dffs + 2, static_cast<std::size_t>(plan.total_dffs()));
  }
}

TEST(DffInsertion, SplitterCountMatchesFanout) {
  Network net;
  const NodeId x = net.add_pi();
  const NodeId o = net.add_pi();
  net.add_po(net.add_and(x, o));
  net.add_po(net.add_or(x, o));
  net.add_po(net.add_xor(x, o));
  const MultiphaseConfig clk{4};
  const auto pa = assign(net, 4);
  const auto phys = insert_dffs(net, pa, clk);
  // x and o each drive three gates: two splitters each.
  EXPECT_EQ(phys.num_splitters, 4u);
}

TEST(DffInsertion, PreservesInterfaceNames) {
  Network net("iface");
  const NodeId a = net.add_pi("alpha");
  const NodeId b = net.add_pi("beta");
  net.add_po(net.add_and(a, b), "gamma");
  const MultiphaseConfig clk{2};
  const auto pa = assign(net, 2);
  const auto phys = insert_dffs(net, pa, clk);
  EXPECT_EQ(phys.net.pi_name(0), "alpha");
  EXPECT_EQ(phys.net.po_name(0), "gamma");
  EXPECT_EQ(phys.net.name(), "iface");
}

TEST(DffInsertion, InfeasibleAssignmentThrows) {
  Network net;
  const NodeId a = net.add_pi();
  net.add_po(net.add_not(a));
  PhaseAssignment pa;
  pa.feasible = false;
  EXPECT_THROW(insert_dffs(net, pa, MultiphaseConfig{4}), std::invalid_argument);
}

}  // namespace
}  // namespace t1sfq
