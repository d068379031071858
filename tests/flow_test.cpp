#include "core/flow.hpp"

#include <gtest/gtest.h>

#include "benchmarks/arith.hpp"
#include "benchmarks/epfl.hpp"
#include "benchmarks/iscas.hpp"
#include "core/report.hpp"
#include "network/equivalence.hpp"

namespace t1sfq {
namespace {

Network small_adder(unsigned bits) {
  Network net("rca" + std::to_string(bits));
  const Word a = add_pi_word(net, bits, "a");
  const Word b = add_pi_word(net, bits, "b");
  add_po_word(net, ripple_carry_adder(net, a, b, net.get_const0()), "s");
  return net;
}

FlowParams make_params(unsigned phases, bool use_t1) {
  FlowParams p;
  p.clk.phases = phases;
  p.use_t1 = use_t1;
  // Seed-reproduction mode: these tests pin the paper's T1 behavior on the
  // generators' raw structures. Optimized flows are covered by opt_test.cpp
  // and the random-flow property tests (which keep the optimizer on).
  p.opt.enable = false;
  return p;
}

TEST(Flow, SinglePhaseBaselineVerifies) {
  const Network net = small_adder(6);
  const auto res = run_flow(net, make_params(1, false));
  EXPECT_GT(res.metrics.num_dffs, 0u);
  EXPECT_EQ(res.metrics.t1_used, 0u);
  EXPECT_TRUE(verify_flow(res, net, MultiphaseConfig{1}));
}

TEST(Flow, FourPhaseBaselineCutsDffs) {
  const Network net = small_adder(8);
  const auto r1 = run_flow(net, make_params(1, false));
  const auto r4 = run_flow(net, make_params(4, false));
  EXPECT_LT(r4.metrics.num_dffs, r1.metrics.num_dffs);
  EXPECT_LT(r4.metrics.area_jj, r1.metrics.area_jj);
  EXPECT_LT(r4.metrics.depth_cycles, r1.metrics.depth_cycles);
  EXPECT_TRUE(verify_flow(r4, net, MultiphaseConfig{4}));
}

TEST(Flow, T1FlowConvertsTheAdderAndWins) {
  // The paper's headline: on the adder nearly every full adder maps to a T1
  // and area drops vs the 4-phase baseline.
  const Network net = small_adder(16);
  const auto base = run_flow(net, make_params(4, false));
  const auto t1 = run_flow(net, make_params(4, true));
  // Bit 0 is a half adder (cin = 0 folds away), so bits-1 T1 cells — the same
  // pattern as the paper's 127 T1s on the 128-bit adder.
  EXPECT_EQ(t1.metrics.t1_used, 15u);
  EXPECT_LT(t1.metrics.area_jj, base.metrics.area_jj);
  EXPECT_TRUE(verify_flow(t1, net, MultiphaseConfig{4}));
}

TEST(Flow, T1DepthOverheadIsModest) {
  // Depth may grow (eq. 3 spacing) but stays in the paper's ballpark (+13%
  // average, up to ~+25%).
  const Network net = small_adder(12);
  const auto base = run_flow(net, make_params(4, false));
  const auto t1 = run_flow(net, make_params(4, true));
  EXPECT_LE(t1.metrics.depth_cycles, base.metrics.depth_cycles * 2);
}

TEST(Flow, T1WithTooFewPhasesThrows) {
  const Network net = small_adder(2);
  EXPECT_THROW(run_flow(net, make_params(2, true)), std::invalid_argument);
}

TEST(Flow, MultiplierEndToEnd) {
  const Network net = bench::c6288_like(5);
  const auto t1 = run_flow(net, make_params(4, true));
  EXPECT_GT(t1.metrics.t1_used, 0u);
  EXPECT_TRUE(verify_flow(t1, net, MultiphaseConfig{4}));
}

TEST(Flow, VoterEndToEnd) {
  const Network net = bench::epfl_voter(15);
  const auto t1 = run_flow(net, make_params(4, true));
  EXPECT_GT(t1.metrics.t1_used, 0u);
  EXPECT_TRUE(verify_flow(t1, net, MultiphaseConfig{4}));
}

TEST(Flow, MetricsAreInternallyConsistent) {
  const Network net = small_adder(8);
  const auto res = run_flow(net, make_params(4, true));
  // Area must at least cover gates + DFFs.
  const CellLibrary lib;
  uint64_t floor_area = res.metrics.num_dffs * lib.jj_dff;
  EXPECT_GT(res.metrics.area_jj, floor_area);
  EXPECT_EQ(res.metrics.num_dffs, res.physical.num_dffs);
  EXPECT_GT(res.metrics.depth_cycles, 0);
}

TEST(Flow, AreaConfigSwitchesMatter) {
  const Network net = small_adder(6);
  FlowParams p = make_params(4, false);
  const auto with_split = run_flow(net, p);
  p.area.count_splitters = false;
  const auto without_split = run_flow(net, p);
  EXPECT_GT(with_split.metrics.area_jj, without_split.metrics.area_jj);
  p.area.clock_jj_per_clocked = 0;
  const auto without_clock = run_flow(net, p);
  EXPECT_GT(without_split.metrics.area_jj, without_clock.metrics.area_jj);
}

TEST(Flow, T1OffScheduleMatchesFullSweepReference) {
  // Without T1 the flow still schedules on a view of its own; the result
  // must be the full-sweep scheduler's on the mapped network.
  const Network net = bench::epfl_voter(15);
  for (const Stage slack : {Stage{0}, Stage{3}}) {
    FlowParams fp;
    fp.use_t1 = false;
    fp.output_slack = slack;
    const FlowResult res = run_flow(net, fp);
    PhaseAssignmentParams pp;
    pp.clk = fp.clk;
    pp.output_slack = slack;
    pp.incremental = false;
    const PhaseAssignment ref = assign_phases(res.mapped, pp);
    EXPECT_EQ(res.assignment.stage, ref.stage) << "slack " << slack;
    EXPECT_EQ(res.assignment.output_stage, ref.output_stage);
    EXPECT_EQ(res.assignment.estimated_dffs, ref.estimated_dffs);
  }
}

TEST(Flow, MilpEngineOnTinyCircuit) {
  const Network net = small_adder(2);
  FlowParams p = make_params(4, true);
  p.engine = PhaseEngine::ExactMilp;
  const auto res = run_flow(net, p);
  EXPECT_TRUE(verify_flow(res, net, MultiphaseConfig{4}));
  // The exact engine cannot be worse than the heuristic.
  FlowParams ph = make_params(4, true);
  const auto heur = run_flow(net, ph);
  EXPECT_LE(res.metrics.num_dffs, heur.metrics.num_dffs);
}

TEST(Flow, TableRowSummarization) {
  const Network net = small_adder(4);
  TableRow row;
  row.name = net.name();
  row.single_phase = run_flow(net, make_params(1, false)).metrics;
  row.multi_phase = run_flow(net, make_params(4, false)).metrics;
  row.t1 = run_flow(net, make_params(4, true)).metrics;
  const auto summary = summarize({row});
  EXPECT_GT(summary.dff_ratio_vs_1phi, 0.0);
  EXPECT_LT(summary.dff_ratio_vs_1phi, 1.0);  // multiphase + T1 beats 1 phase
  std::ostringstream os;
  print_table(os, {row}, 4);
  EXPECT_NE(os.str().find("rca4"), std::string::npos);
  EXPECT_NE(os.str().find("Average"), std::string::npos);
}

TEST(Flow, SinBenchmarkSmallEndToEnd) {
  const Network net = bench::epfl_sin(6);
  const auto res = run_flow(net, make_params(4, true));
  EXPECT_TRUE(verify_flow(res, net, MultiphaseConfig{4}));
}

class FlowPhases : public ::testing::TestWithParam<unsigned> {};

TEST_P(FlowPhases, BaselineVerifiesAcrossPhaseCounts) {
  const Network net = small_adder(5);
  const unsigned phases = GetParam();
  const auto res = run_flow(net, make_params(phases, false));
  EXPECT_TRUE(verify_flow(res, net, MultiphaseConfig{phases}));
}

INSTANTIATE_TEST_SUITE_P(Phases, FlowPhases, ::testing::Values(1u, 2u, 3u, 4u, 5u, 8u));

}  // namespace
}  // namespace t1sfq
