#include "sfq/clocking.hpp"

#include <gtest/gtest.h>

namespace t1sfq {
namespace {

TEST(Clocking, StagePhaseEpochRoundTrip) {
  const MultiphaseConfig clk{4};
  // Paper eq. 1: sigma = n*S + phi.
  EXPECT_EQ(clk.stage(0, 0), 0);
  EXPECT_EQ(clk.stage(2, 3), 11);
  EXPECT_EQ(clk.phase_of(11), 3u);
  EXPECT_EQ(clk.epoch_of(11), 2);
}

TEST(Clocking, SinglePhaseDegeneratesToLevels) {
  const MultiphaseConfig clk{1};
  // n = 1: every stage is its own cycle, one DFF per skipped level.
  EXPECT_EQ(clk.dffs_on_edge(0, 1), 0);
  EXPECT_EQ(clk.dffs_on_edge(0, 5), 4);
  EXPECT_EQ(clk.cycles(7), 7);
}

TEST(Clocking, FourPhaseDffWindows) {
  const MultiphaseConfig clk{4};
  // Gaps of up to n stages need no DFF; then one per extra window.
  EXPECT_EQ(clk.dffs_on_edge(0, 1), 0);
  EXPECT_EQ(clk.dffs_on_edge(0, 4), 0);
  EXPECT_EQ(clk.dffs_on_edge(0, 5), 1);
  EXPECT_EQ(clk.dffs_on_edge(0, 8), 1);
  EXPECT_EQ(clk.dffs_on_edge(0, 9), 2);
  EXPECT_EQ(clk.dffs_on_edge(3, 7), 0);
}

TEST(Clocking, NonForwardEdgesCostNothing) {
  const MultiphaseConfig clk{4};
  EXPECT_EQ(clk.dffs_on_edge(5, 5), 0);
  EXPECT_EQ(clk.dffs_on_edge(7, 3), 0);
}

TEST(Clocking, CyclesIsCeilOfStageOverPhases) {
  const MultiphaseConfig clk{4};
  EXPECT_EQ(clk.cycles(0), 0);
  EXPECT_EQ(clk.cycles(1), 1);
  EXPECT_EQ(clk.cycles(4), 1);
  EXPECT_EQ(clk.cycles(5), 2);
  EXPECT_EQ(clk.cycles(128 * 4), 128);
}

TEST(Clocking, LandingSplitsIntoSpineAndDedicatedDffs) {
  // Paper eq. 5: a T1 input landing `gap` stages after its producer rides
  // landing_spine DFFs of the shared spine plus one dedicated DFF when the
  // slot is off the spine — one more than a plain edge of that gap needs.
  for (unsigned n = 1; n <= 8; ++n) {
    const MultiphaseConfig clk{n};
    for (Stage gap = 0; gap <= 4 * static_cast<Stage>(n); ++gap) {
      const Stage from = 3;
      const Stage at = from + gap;
      const Stage total = clk.landing_spine(from, at) + clk.landing_dedicated(from, at);
      EXPECT_EQ(total, gap == 0 ? 0 : clk.dffs_on_edge(from, at) + 1)
          << "n=" << n << " gap=" << gap;
      EXPECT_EQ(clk.landing_dedicated(from, at), clk.landing_spine(from, at) * n != gap)
          << "n=" << n << " gap=" << gap;
    }
  }
}

class ClockingSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(ClockingSweep, DffCountMatchesClosedForm) {
  const MultiphaseConfig clk{GetParam()};
  const Stage n = GetParam();
  for (Stage from = 0; from < 10; ++from) {
    for (Stage to = from + 1; to < from + 30; ++to) {
      // Definition: smallest k such that the chain from..to splits into
      // k+1 hops of at most n stages each.
      Stage k = 0;
      while ((k + 1) * n < to - from) {
        ++k;
      }
      EXPECT_EQ(clk.dffs_on_edge(from, to), k) << "n=" << n << " gap=" << (to - from);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Phases, ClockingSweep, ::testing::Values(1u, 2u, 3u, 4u, 5u, 8u));

}  // namespace
}  // namespace t1sfq
