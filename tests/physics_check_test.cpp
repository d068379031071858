/// Tests for the physics-validated flow oracle (verify/physics_check.hpp):
/// Table-I circuits pass the oracle across opt/T1 configurations, corrupted
/// schedules are rejected with a witness vector, wrong goldens yield function
/// witnesses, and the analog device probe cross-checks the pulse model.

#include <gtest/gtest.h>

#include <numeric>

#include "benchmarks/suite.hpp"
#include "core/flow.hpp"
#include "obs/metrics.hpp"
#include "random_network_test_util.hpp"
#include "sfq/pulse_sim.hpp"
#include "verify/physics_check.hpp"

namespace t1sfq {
namespace {

using testutil::random_network;

verify::PhysicsCheckParams fast_params() {
  verify::PhysicsCheckParams pp;
  pp.random_vectors = 32;  // unit-test budget; benches run the full default
  pp.max_walking_ones = 16;
  pp.max_hazard_t1 = 8;
  return pp;
}

struct SuiteCase {
  bool opt;
  bool use_t1;
};

class PhysicsOnSuite : public ::testing::TestWithParam<SuiteCase> {};

TEST_P(PhysicsOnSuite, Shrink16TableICircuitsPass) {
  const auto [opt, use_t1] = GetParam();
  for (const auto& bc : bench::make_suite_scaled(16)) {
    FlowParams p;
    p.use_t1 = use_t1;
    p.opt.enable = opt;
    p.physics_check = true;
    p.physics = fast_params();
    const FlowResult res = run_flow(bc.generate(), p);  // throws on oracle FAIL
    EXPECT_TRUE(res.physics.ran) << bc.name;
    EXPECT_TRUE(res.physics.ok) << bc.name << ": " << res.physics.summary();
    EXPECT_GT(res.physics.vectors, 0u) << bc.name;
    EXPECT_GT(res.physics.checked_edges, 0u) << bc.name;
    EXPECT_GE(res.physics.min_margin, 0) << bc.name;
    // Histogram accounts for every checked edge, and no bucket below the
    // reported minimum is populated.
    const uint64_t total = std::accumulate(res.physics.margin_histogram.begin(),
                                           res.physics.margin_histogram.end(),
                                           uint64_t{0});
    EXPECT_EQ(total, res.physics.checked_edges) << bc.name;
    for (int64_t m = 0; m < res.physics.min_margin &&
                        m < static_cast<int64_t>(res.physics.margin_histogram.size() - 1);
         ++m) {
      EXPECT_EQ(res.physics.margin_histogram[static_cast<std::size_t>(m)], 0u)
          << bc.name;
    }
    EXPECT_GT(res.timings.physics_ms, 0.0) << bc.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, PhysicsOnSuite,
                         ::testing::Values(SuiteCase{false, false}, SuiteCase{false, true},
                                           SuiteCase{true, false}, SuiteCase{true, true}));

TEST(PhysicsCheck, Shrink8SpotCheckWithT1) {
  // One larger circuit at shrink 8 to exercise deeper DFF spines; the full
  // shrink-4/8 sweep runs in the physics-smoke bench step.
  const auto suite = bench::make_suite_scaled(8);
  FlowParams p;
  p.opt.enable = true;
  p.physics_check = true;
  p.physics = fast_params();
  const FlowResult res = run_flow(suite.front().generate(), p);
  EXPECT_TRUE(res.physics.ok) << res.physics.summary();
  EXPECT_GT(res.physics.hazard_cases, 0u);  // adder maps to T1 cells
}

TEST(PhysicsCheck, SinglePhaseFlowPasses) {
  FlowParams p;
  p.clk.phases = 1;  // every margin is exactly 0: zero-slack everywhere
  p.use_t1 = false;
  p.physics_check = true;
  p.physics = fast_params();
  const FlowResult res = run_flow(random_network(7, 8, 60), p);
  EXPECT_TRUE(res.physics.ok) << res.physics.summary();
  EXPECT_EQ(res.physics.min_margin, 0);
  EXPECT_EQ(res.physics.margin_histogram.size(), 1u);
}

/// Acceptance pin: a deliberately corrupted schedule — one node shifted one
/// phase earlier — is rejected with a witness vector.
TEST(PhysicsCheck, CorruptedScheduleRejectedWithWitness) {
  const Network net = bench::make_suite_scaled(16).front().generate();
  FlowParams p;
  const FlowResult res = run_flow(net, p);

  PhysicalNetlist corrupted = res.physical;
  // Find a clocked consumer fed at gap exactly 1 (a T1 landing slot or an
  // ASAP-tight edge); shifting it one phase earlier makes that gap 0 — a
  // pulse would have to arrive before its producer fires.
  const auto release = release_stages(corrupted.net, corrupted.stage);
  NodeId victim = kNullNode;
  for (const NodeId id : corrupted.net.topo_order()) {
    const Node& node = corrupted.net.node(id);
    if (node.type == GateType::Pi || node.type == GateType::Buf ||
        node.type == GateType::T1Port || node.type == GateType::Const0 ||
        node.type == GateType::Const1) {
      continue;
    }
    for (uint8_t i = 0; i < node.num_fanins; ++i) {
      if (corrupted.stage[id] - release[node.fanin(i)] == 1) {
        victim = id;
        break;
      }
    }
    if (victim != kNullNode) break;
  }
  ASSERT_NE(victim, kNullNode);
  corrupted.stage[victim] -= 1;

  const auto report =
      t1sfq::verify::physics_check(corrupted, p.clk, net, fast_params());
  EXPECT_TRUE(report.ran);
  EXPECT_FALSE(report.ok);
  EXPECT_GT(report.timing_violations, 0u);
  EXPECT_TRUE(report.has_witness);
  EXPECT_EQ(report.witness_kind, "timing");
  EXPECT_EQ(report.witness.size(), net.num_pis());
  EXPECT_FALSE(report.first_violation.empty());
  EXPECT_NE(report.summary().find("FAIL"), std::string::npos);

  // The same corruption makes the flow-embedded oracle throw.
  FlowParams strict = p;
  strict.physics_check = true;
  EXPECT_NO_THROW(run_flow(net, strict));  // uncorrupted: oracle passes inline
}

/// Timing is checked once per netlist, not per driven wave: a violating
/// schedule fails even when no vector is driven, with the all-zero vector as
/// its witness, and pulse_verify rejects it with zero rounds.
TEST(PhysicsCheck, ViolatingScheduleFailsWhenNoWaveIsDriven) {
  const Network net = bench::make_suite_scaled(16).front().generate();
  const FlowParams p;
  const FlowResult res = run_flow(net, p);

  PhysicalNetlist shifted = res.physical;
  NodeId t1 = kNullNode;
  for (const NodeId id : shifted.net.topo_order()) {
    if (shifted.net.node(id).type == GateType::T1) {
      t1 = id;
      break;
    }
  }
  ASSERT_NE(t1, kNullNode);
  shifted.stage[t1] -= 1;

  verify::PhysicsCheckParams none;
  none.random_vectors = 0;
  none.directed_vectors = false;
  none.hazard_vectors = false;
  const auto report = t1sfq::verify::physics_check(shifted, p.clk, net, none);
  EXPECT_EQ(report.vectors, 0u);
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.timing_violations,
            t1sfq::verify::physics_check(shifted, p.clk, net).timing_violations);
  EXPECT_GT(report.timing_violations, 0u);
  EXPECT_TRUE(report.has_witness);
  EXPECT_EQ(report.witness_kind, "timing");
  EXPECT_EQ(report.witness, std::vector<bool>(net.num_pis(), false));
  EXPECT_FALSE(report.first_violation.empty());
  EXPECT_NE(report.summary().find("FAIL"), std::string::npos);

  EXPECT_FALSE(pulse_verify(shifted.net, shifted.stage, p.clk, net, 0));
  // The legal schedule still passes both with nothing driven.
  EXPECT_TRUE(t1sfq::verify::physics_check(res.physical, p.clk, net, none).ok);
  EXPECT_TRUE(pulse_verify(res.physical.net, res.physical.stage, p.clk, net, 0));
}

TEST(PhysicsCheck, WrongGoldenYieldsFunctionWitness) {
  Network net;
  const NodeId a = net.add_pi();
  const NodeId b = net.add_pi();
  net.add_po(net.add_and(a, b));
  Network wrong;
  const NodeId wa = wrong.add_pi();
  const NodeId wb = wrong.add_pi();
  wrong.add_po(wrong.add_or(wa, wb));

  const FlowResult res = run_flow(net, FlowParams{});
  const auto report =
      t1sfq::verify::physics_check(res.physical, MultiphaseConfig{4}, wrong);
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.timing_violations, 0u);
  EXPECT_GT(report.function_mismatches, 0u);
  EXPECT_TRUE(report.has_witness);
  EXPECT_EQ(report.witness_kind, "function");
  // The first mismatching vector must actually disagree: AND != OR on it.
  ASSERT_EQ(report.witness.size(), 2u);
  EXPECT_NE(report.witness[0] && report.witness[1],
            report.witness[0] || report.witness[1]);
}

TEST(PhysicsCheck, DeviceProbeValidatesPulseModelPremises) {
  FlowParams p;
  p.physics_check = true;
  p.physics = fast_params();
  p.physics.random_vectors = 4;
  p.physics.device_probe = true;
  const FlowResult res = run_flow(random_network(3, 6, 30), p);
  EXPECT_TRUE(res.physics.device_probe_ran);
  EXPECT_TRUE(res.physics.device_probe_ok);
  EXPECT_TRUE(res.physics.ok);
}

TEST(PhysicsCheck, MalformedInputsThrow) {
  const Network net = random_network(5, 6, 30);
  const FlowResult res = run_flow(net, FlowParams{});
  const Network other = random_network(6, 7, 30);  // different PI count
  EXPECT_THROW(t1sfq::verify::physics_check(res.physical, MultiphaseConfig{4}, other),
               std::invalid_argument);
  PhysicalNetlist truncated = res.physical;
  truncated.stage.resize(truncated.net.size() / 2);
  EXPECT_THROW(t1sfq::verify::physics_check(truncated, MultiphaseConfig{4}, net),
               std::invalid_argument);
}

TEST(PhysicsCheck, ReportNotRunByDefault) {
  const FlowResult res = run_flow(random_network(9, 6, 30), FlowParams{});
  EXPECT_FALSE(res.physics.ran);
  EXPECT_EQ(res.physics.summary(), "physics check: not run");
  EXPECT_EQ(res.timings.physics_ms, 0.0);
}

TEST(PhysicsCheck, ObsCountersMirrorTheVerdict) {
  obs::Registry::instance().reset();
  obs::ScopedEnable scope(true);
  FlowParams p;
  p.physics_check = true;
  p.physics = fast_params();
  p.physics.random_vectors = 8;
  const FlowResult res = run_flow(random_network(11, 6, 40), p);
  EXPECT_TRUE(res.physics.ok);
  auto& reg = obs::Registry::instance();
  EXPECT_EQ(reg.counter("verify.physics_checks"), 1u);
  EXPECT_EQ(reg.counter("verify.physics_failures"), 0u);
  EXPECT_EQ(reg.counter("verify.physics_vectors"), res.physics.vectors);
  EXPECT_EQ(reg.gauge("verify.min_margin_stages"), res.physics.min_margin);
  // The margin histogram landed, one sample per checked edge.
  uint64_t hist_count = 0;
  for (const auto& m : reg.snapshot()) {
    if (m.name == "verify.phase_margin_stages") {
      hist_count = m.count;
    }
  }
  EXPECT_EQ(hist_count, res.physics.checked_edges);
  obs::Registry::instance().reset();
}

}  // namespace
}  // namespace t1sfq
