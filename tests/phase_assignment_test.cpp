#include "core/phase_assignment.hpp"

#include <gtest/gtest.h>

#include "benchmarks/arith.hpp"
#include "core/t1_detection.hpp"
#include "incr/incremental_view.hpp"

namespace t1sfq {
namespace {

Network chain(unsigned length) {
  Network net;
  NodeId prev = net.add_pi();
  const NodeId other = net.add_pi();
  for (unsigned i = 0; i < length; ++i) {
    prev = i % 2 ? net.add_and(prev, other) : net.add_xor(prev, other);
  }
  net.add_po(prev);
  return net;
}

PhaseAssignmentParams params(unsigned phases, PhaseEngine engine = PhaseEngine::Heuristic) {
  PhaseAssignmentParams p;
  p.clk.phases = phases;
  p.engine = engine;
  return p;
}

TEST(PhaseAssignment, ChainWithinWindowNeedsNoDffs) {
  // A depth-4 chain whose side input feeds every level: with n >= 4 phases
  // every edge fits one clock window; with n = 1 the side input needs a
  // spine covering all but the first level.
  const Network net = chain(4);
  const auto pa4 = assign_phases(net, params(4));
  EXPECT_TRUE(pa4.feasible);
  EXPECT_EQ(pa4.estimated_dffs, 0);
  const auto pa8 = assign_phases(net, params(8));
  EXPECT_EQ(pa8.estimated_dffs, 0);
  const auto pa1 = assign_phases(net, params(1));
  EXPECT_EQ(pa1.estimated_dffs, 3);  // shared spine for the side input
}

TEST(PhaseAssignment, UnbalancedFanoutCostsDffs) {
  // y = and(x1, deep-chain(x1)): the short branch must be padded.
  Network net;
  const NodeId x = net.add_pi();
  const NodeId o = net.add_pi();
  NodeId deep = x;
  for (int i = 0; i < 9; ++i) {
    deep = net.add_xor(deep, o);
  }
  net.add_po(net.add_and(x, deep));
  const auto pa1 = assign_phases(net, params(1));
  // Single phase: the x -> and edge spans 10 levels: 9 DFFs; plus `o` feeding
  // all chain stages needs its own spine of 8.
  EXPECT_EQ(pa1.estimated_dffs, 9 + 8);
  const auto pa4 = assign_phases(net, params(4));
  // Four phases: ceil(10/4)-1 = 2 on the x edge, ceil(9/4)-1 = 2 for o.
  EXPECT_EQ(pa4.estimated_dffs, 2 + 2);
}

TEST(PhaseAssignment, FeasibilityCheckerCatchesViolations) {
  Network net;
  const NodeId a = net.add_pi();
  const NodeId b = net.add_pi();
  const NodeId g = net.add_and(a, b);
  net.add_po(g);
  std::vector<Stage> stage(net.size(), 0);
  const MultiphaseConfig clk{4};
  EXPECT_FALSE(assignment_feasible(net, stage, 1, clk));  // gate at stage 0
  stage[g] = 1;
  EXPECT_TRUE(assignment_feasible(net, stage, 2, clk));
  EXPECT_FALSE(assignment_feasible(net, stage, 1, clk));  // sink too early
}

TEST(PhaseAssignment, T1ConstraintEquation3) {
  Network net;
  const NodeId a = net.add_pi();
  const NodeId b = net.add_pi();
  const NodeId c = net.add_pi();
  const NodeId g = net.add_and(a, b);       // stage >= 1
  const NodeId t1 = net.add_t1(g, b, c);
  net.add_po(net.add_t1_port(t1, T1PortFn::Sum));
  const auto pa = assign_phases(net, params(4));
  ASSERT_TRUE(pa.feasible);
  // Fanins at stages {1, 0, 0}: sigma_T1 >= max(0+3, 0+2, 1+1)... sorted
  // ascending (0,0,1) -> max(0+3, 0+2, 1+1) = 3? No: eq. 3 assigns the
  // largest offset to the earliest fanin: max(0+3, 0+2, 1+1) = 3. But two
  // fanins tie at stage 0 and slots must be distinct: (0+3, 0+2, 1+1) = 3.
  EXPECT_GE(pa.stage[t1], 3);
  EXPECT_TRUE(assignment_feasible(net, pa.stage, pa.output_stage, MultiphaseConfig{4}));
}

TEST(PhaseAssignment, T1WithFewerThanFourPhasesInfeasible) {
  Network net;
  const NodeId a = net.add_pi();
  const NodeId b = net.add_pi();
  const NodeId c = net.add_pi();
  const NodeId t1 = net.add_t1(a, b, c);
  net.add_po(net.add_t1_port(t1, T1PortFn::Sum));
  const auto pa = assign_phases(net, params(3));
  EXPECT_FALSE(pa.feasible);
}

TEST(PhaseAssignment, PlanCountsT1LandingDffs) {
  // T1 fed directly by three PIs (stage 0): landing slots sigma-1..3 all need
  // one DFF each (sigma = 3 -> stages 0,1,2; the slot at stage 0 is direct).
  Network net;
  const NodeId a = net.add_pi();
  const NodeId b = net.add_pi();
  const NodeId c = net.add_pi();
  const NodeId t1 = net.add_t1(a, b, c);
  net.add_po(net.add_t1_port(t1, T1PortFn::Sum));
  const auto pa = assign_phases(net, params(4));
  ASSERT_TRUE(pa.feasible);
  EXPECT_EQ(pa.stage[t1], 3);
  // Slots land at stages 0,1,2 from PIs at stage 0: two DFF chains (stages 1
  // and 2), the third input connects directly.
  EXPECT_EQ(pa.estimated_dffs, 2);
}

TEST(PhaseAssignment, HeuristicImprovesOnAsap) {
  // Two parallel chains of different depth joined at the top: ASAP puts the
  // short chain early and pays a long balance chain; sliding it later removes
  // DFFs entirely when the window allows.
  Network net;
  const NodeId x = net.add_pi();
  const NodeId o = net.add_pi();
  NodeId deep = x;
  for (int i = 0; i < 6; ++i) {
    deep = net.add_xor(deep, o);
  }
  const NodeId shallow = net.add_not(x);
  net.add_po(net.add_and(deep, shallow));
  const auto pa = assign_phases(net, params(8));
  // With 8 phases everything fits in one window; optimal is zero DFFs.
  EXPECT_EQ(pa.estimated_dffs, 0);
}

TEST(PhaseAssignment, MilpMatchesHeuristicOnSmallAdder) {
  Network net;
  const Word a = add_pi_word(net, 3, "a");
  const Word b = add_pi_word(net, 3, "b");
  add_po_word(net, ripple_carry_adder(net, a, b, net.get_const0()), "s");
  const auto h = assign_phases(net, params(4, PhaseEngine::Heuristic));
  const auto m = assign_phases(net, params(4, PhaseEngine::ExactMilp));
  ASSERT_TRUE(h.feasible);
  ASSERT_TRUE(m.feasible);
  // The exact engine can never be worse under the shared cost model.
  EXPECT_LE(m.estimated_dffs, h.estimated_dffs);
  EXPECT_TRUE(assignment_feasible(net, m.stage, m.output_stage, MultiphaseConfig{4}));
}

TEST(PhaseAssignment, MilpHandlesT1Slots) {
  Network net;
  const NodeId a = net.add_pi();
  const NodeId b = net.add_pi();
  const NodeId c = net.add_pi();
  const SumCarry fa = full_adder(net, a, b, c);
  net.add_po(fa.sum);
  net.add_po(fa.carry);
  detect_and_replace_t1(net, CellLibrary{});
  net = net.cleanup();
  ASSERT_EQ(net.count_of(GateType::T1), 1u);
  const auto m = assign_phases(net, params(4, PhaseEngine::ExactMilp));
  ASSERT_TRUE(m.feasible);
  EXPECT_TRUE(assignment_feasible(net, m.stage, m.output_stage, MultiphaseConfig{4}));
}

TEST(PhaseAssignment, PlanMatchesManualCountOnFanoutTree) {
  // One driver, consumers at stages 2, 6, 11 with n = 4: the shared spine
  // needs ceil(11/4)-1 = 2 DFFs; consumers at 2 and 6 tap it.
  Network net;
  const NodeId x = net.add_pi();
  const NodeId o = net.add_pi();
  const NodeId c1 = net.add_and(x, o);
  const NodeId c2 = net.add_or(x, o);
  const NodeId c3 = net.add_xor(x, o);
  net.add_po(c1);
  net.add_po(c2);
  net.add_po(c3);
  std::vector<Stage> stage(net.size(), 0);
  stage[c1] = 2;
  stage[c2] = 6;
  stage[c3] = 11;
  const MultiphaseConfig clk{4};
  const auto plan = plan_dffs(net, stage, 12, clk);
  EXPECT_EQ(plan.spine_len[x], 2);
  EXPECT_EQ(plan.spine_len[o], 2);
  EXPECT_EQ(plan.dedicated_landings, 0);
}

TEST(PhaseAssignment, ResolveProducerFollowsPorts) {
  Network net;
  const NodeId a = net.add_pi();
  const NodeId b = net.add_pi();
  const NodeId c = net.add_pi();
  const NodeId t1 = net.add_t1(a, b, c);
  const NodeId port = net.add_t1_port(t1, T1PortFn::Carry);
  net.add_po(port);
  EXPECT_EQ(resolve_producer(net, port), t1);
  EXPECT_EQ(resolve_producer(net, a), a);
}

TEST(PhaseAssignment, OutputStageBalancesAllPos) {
  Network net;
  const NodeId x = net.add_pi();
  const NodeId o = net.add_pi();
  net.add_po(net.add_and(x, o));                          // depth 1
  net.add_po(net.add_xor(net.add_or(x, o), x));           // depth 2
  const auto pa = assign_phases(net, params(4));
  EXPECT_GE(pa.output_stage, 3);
  EXPECT_TRUE(assignment_feasible(net, pa.stage, pa.output_stage, MultiphaseConfig{4}));
}

class PhaseSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(PhaseSweep, MorePhasesNeverIncreaseDffs) {
  Network net;
  const Word a = add_pi_word(net, 6, "a");
  const Word b = add_pi_word(net, 6, "b");
  add_po_word(net, ripple_carry_adder(net, a, b, net.get_const0()), "s");
  const unsigned n = GetParam();
  const auto low = assign_phases(net, params(n));
  const auto high = assign_phases(net, params(2 * n));
  EXPECT_LE(high.estimated_dffs, low.estimated_dffs) << n << " vs " << 2 * n;
}

INSTANTIATE_TEST_SUITE_P(Phases, PhaseSweep, ::testing::Values(1u, 2u, 3u, 4u));

// ---------------------------------------------------------------------------
// Incremental (slack-seeded, dirty-worklist) scheduler vs legacy full sweep
// ---------------------------------------------------------------------------

/// The incremental scheduler's contract is *identity*, not approximation: it
/// may only skip evaluations that provably reproduce the node's current
/// stage, so the full assignment — every stage, the sink, the DFF estimate —
/// must be bit-identical to the legacy full sweep. Exercised on T1-rich
/// networks (ripple adders fuse into port-chained T1 cells, the worst case
/// for the eq.-3 coupling the dirty marking must respect), with and without
/// output slack, across phase counts.
TEST(PhaseAssignment, IncrementalSchedulerMatchesLegacyFullSweep) {
  for (const unsigned bits : {8u, 16u}) {
    Network net;
    const Word a = add_pi_word(net, bits, "a");
    const Word b = add_pi_word(net, bits, "b");
    add_po_word(net, ripple_carry_adder(net, a, b, net.get_const0()), "s");
    detect_and_replace_t1(net, CellLibrary{});  // plant chained T1 bodies

    for (const unsigned phases : {4u, 6u}) {
      for (const Stage slack : {Stage{0}, Stage{3}}) {
        PhaseAssignmentParams p = params(phases);
        p.output_slack = slack;
        p.incremental = false;
        const auto legacy = assign_phases(net, p);
        p.incremental = true;
        const auto incr = assign_phases(net, p);
        ASSERT_TRUE(legacy.feasible);
        ASSERT_TRUE(incr.feasible);
        EXPECT_EQ(incr.stage, legacy.stage)
            << bits << "b, " << phases << " phases, slack " << slack;
        EXPECT_EQ(incr.output_stage, legacy.output_stage);
        EXPECT_EQ(incr.estimated_dffs, legacy.estimated_dffs);
      }
    }
  }
}

/// The flow schedules on the view detection hands back — maintained through
/// every commit and rebound through the final compaction, not rebuilt. Its
/// incremental schedule must equal the full-sweep reference on a fresh view
/// of the same network, at the ASAP sink and with output slack.
TEST(PhaseAssignment, ViewSeededOverloadMatchesFromScratch) {
  Network net;
  const Word a = add_pi_word(net, 12, "a");
  const Word b = add_pi_word(net, 12, "b");
  add_po_word(net, ripple_carry_adder(net, a, b, net.get_const0()), "s");
  const CostModel model(CellLibrary{}, AreaConfig{}, MultiphaseConfig{4});
  IncrementalView view(net, model, /*track_plan=*/true);
  const T1DetectionStats det = detect_and_replace_t1(net, model, T1DetectionParams{}, &view);
  ASSERT_GT(det.used, 0u);
  ASSERT_GE(view.view_stats().rebinds, 1u);

  for (const Stage slack : {Stage{0}, Stage{3}}) {
    PhaseAssignmentParams p = params(4);
    p.output_slack = slack;
    p.incremental = false;
    const auto full_sweep = assign_phases(net, p);
    p.incremental = true;
    const auto from_view = assign_phases(view, p);
    ASSERT_TRUE(from_view.feasible);
    EXPECT_EQ(from_view.stage, full_sweep.stage) << "slack " << slack;
    EXPECT_EQ(from_view.output_stage, full_sweep.output_stage);
    EXPECT_EQ(from_view.estimated_dffs, full_sweep.estimated_dffs);
  }
}

}  // namespace
}  // namespace t1sfq
