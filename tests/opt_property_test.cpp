/// Property-based testing of the optimization subsystem on random networks:
/// for any random DAG of SFQ cells, the standard pipeline must produce a
/// SAT-equivalent network that regresses neither depth nor gate count, the
/// same network as the full-recompute reference (`OptParams::incremental =
/// false`), and whatever it produces must still survive the full flow.

#include <gtest/gtest.h>

#include <sstream>

#include "core/flow.hpp"
#include "network/equivalence.hpp"
#include "network/io.hpp"
#include "opt/pass.hpp"
#include "random_network_test_util.hpp"
#include "sfq/pulse_sim.hpp"

namespace t1sfq {
namespace {

using testutil::random_network;

class OptProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OptProperty, EquivalentAndNeverWorse) {
  const uint64_t seed = GetParam();
  Network net = random_network(seed, 5 + seed % 5, 30 + seed % 50);
  const Network golden = net.cleanup();
  const std::size_t gates_before = net.num_gates();
  const uint32_t depth_before = net.depth();
  const CostModel model;
  const int64_t dffs_before = model.measure_network(net).plan_dffs;
  Network reference = net;

  const OptSummary s = optimize(net, model);

  // 1. Function preserved (complete SAT proof: these are small networks).
  EXPECT_EQ(check_equivalence(net, golden).result, EquivalenceResult::Equivalent)
      << "seed " << seed;
  // 2. Never worse on any tracked axis.
  EXPECT_LE(net.num_gates(), gates_before) << "seed " << seed;
  EXPECT_LE(net.depth(), depth_before) << "seed " << seed;
  EXPECT_LE(model.measure_network(net).plan_dffs, dffs_before) << "seed " << seed;
  // 3. The summary is consistent with the network.
  EXPECT_EQ(s.gates_after, net.num_gates());
  EXPECT_EQ(s.depth_after, net.depth());
  // 4. No pass was reverted: every transform is individually sound.
  for (const PassStats& ps : s.passes) {
    EXPECT_NE(ps.verdict, PassVerdict::Reverted) << "seed " << seed << " " << ps.name;
  }
  // 5. The delta-maintained analysis makes the same decisions as the
  //    full-recompute reference, netlist for netlist.
  OptParams full;
  full.incremental = false;
  optimize(reference, model, full);
  std::ostringstream got, want;
  write_blif(net, got);
  write_blif(reference, want);
  EXPECT_EQ(got.str(), want.str()) << "seed " << seed;
}

TEST_P(OptProperty, OptimizedNetworksSurviveTheFullFlow) {
  const uint64_t seed = GetParam();
  const Network net = random_network(seed, 5 + seed % 4, 25 + seed % 30);
  FlowParams p;  // optimization on by default
  const FlowResult res = run_flow(net, p);
  EXPECT_EQ(check_equivalence(res.mapped, net).result, EquivalenceResult::Equivalent)
      << "seed " << seed;
  EXPECT_TRUE(pulse_verify(res.physical.net, res.physical.stage, p.clk, net, 1))
      << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptProperty,
                         ::testing::Values(101u, 102u, 103u, 104u, 105u, 106u, 107u,
                                           108u, 109u, 110u, 111u, 112u));

}  // namespace
}  // namespace t1sfq
