/// \file part_test.cpp
/// \brief Tests for the partition-parallel optimization engine (src/part/).
///
/// Pins the three claims the engine is built on:
///   * the partition invariants (disjoint cover of the opt gates, boundary
///     identification, and the safety property the journaled merge relies
///     on: no region input sits in the transitive fanout of any member),
///   * determinism: `partition_jobs = N` produces byte-identical final
///     networks and schedules for every N in {1, 2, 8},
///   * soundness: the partitioned result is SAT-equivalent to both the input
///     and the sequential (`partition_jobs = 0`) flow, and never deeper than
///     the input.
/// Plus the `bench::run_jobs` nested-pool reentrancy guard the engine needs
/// to run inside an already-pooled bench suite.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "benchmarks/runner.hpp"
#include "core/phase_assignment.hpp"
#include "network/equivalence.hpp"
#include "opt/pass.hpp"
#include "part/partitioner.hpp"
#include "part/shard_runner.hpp"
#include "random_network_test_util.hpp"

namespace t1sfq {
namespace {

using part::Partition;
using part::PartitionParams;
using part::Region;

/// Byte-level structural identity: same nodes (type, fanins, port, liveness)
/// in the same order, same interface.
void expect_identical(const Network& a, const Network& b) {
  ASSERT_EQ(a.size(), b.size());
  for (NodeId id = 0; id < a.size(); ++id) {
    const Node& na = a.node(id);
    const Node& nb = b.node(id);
    ASSERT_EQ(na.type, nb.type) << "node " << id;
    ASSERT_EQ(na.num_fanins, nb.num_fanins) << "node " << id;
    ASSERT_EQ(na.port, nb.port) << "node " << id;
    ASSERT_EQ(na.dead, nb.dead) << "node " << id;
    for (unsigned i = 0; i < na.num_fanins; ++i) {
      ASSERT_EQ(na.fanin(i), nb.fanin(i)) << "node " << id << " fanin " << i;
    }
  }
  ASSERT_EQ(a.pis(), b.pis());
  ASSERT_EQ(a.pos(), b.pos());
}

/// Transitive fanout of \p seeds (excluding the seeds themselves) over live
/// consumer edges, PO-independent.
std::vector<char> transitive_fanout(const Network& net,
                                    const std::vector<NodeId>& seeds) {
  auto lists = net.fanout_lists();
  std::vector<char> in_tfo(net.size(), 0);
  std::vector<NodeId> queue = seeds;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    for (const NodeId c : lists[queue[head]]) {
      if (!in_tfo[c]) {
        in_tfo[c] = 1;
        queue.push_back(c);
      }
    }
  }
  return in_tfo;
}

void check_partition_invariants(const Network& net, const Partition& p) {
  // Disjoint cover of every live opt gate.
  std::vector<uint32_t> owner(net.size(), Partition::kNoRegion);
  for (std::size_t r = 0; r < p.regions.size(); ++r) {
    ASSERT_FALSE(p.regions[r].members.empty());
    for (const NodeId m : p.regions[r].members) {
      ASSERT_FALSE(net.is_dead(m));
      ASSERT_TRUE(is_logic_cell(net.node(m).type));
      ASSERT_EQ(owner[m], Partition::kNoRegion) << "node in two regions";
      owner[m] = static_cast<uint32_t>(r);
    }
  }
  for (NodeId id = 0; id < net.size(); ++id) {
    ASSERT_EQ(owner[id], p.region_of[id]);
    if (!net.is_dead(id) && is_logic_cell(net.node(id).type)) {
      ASSERT_NE(owner[id], Partition::kNoRegion) << "uncovered opt gate " << id;
    }
  }

  auto fanouts = net.fanout_counts();
  std::vector<char> is_po(net.size(), 0);
  for (const NodeId po : net.pos()) {
    is_po[po] = 1;
  }
  auto lists = net.fanout_lists();

  std::size_t boundary_total = 0;
  for (std::size_t r = 0; r < p.regions.size(); ++r) {
    const Region& region = p.regions[r];

    // Inputs: exactly the external fanins of the members, each exactly once.
    std::set<NodeId> member_set(region.members.begin(), region.members.end());
    std::set<NodeId> expected_inputs;
    for (const NodeId m : region.members) {
      const Node& nd = net.node(m);
      for (unsigned i = 0; i < nd.num_fanins; ++i) {
        if (member_set.count(nd.fanin(i)) == 0) {
          expected_inputs.insert(nd.fanin(i));
        }
      }
    }
    std::set<NodeId> got_inputs(region.inputs.begin(), region.inputs.end());
    ASSERT_EQ(got_inputs.size(), region.inputs.size()) << "duplicate input";
    ASSERT_EQ(got_inputs, expected_inputs) << "region " << r;

    // Outputs: exactly the members with a PO reference or external consumer.
    std::set<NodeId> expected_outputs;
    for (const NodeId m : region.members) {
      bool boundary = is_po[m] != 0;
      for (const NodeId c : lists[m]) {
        boundary = boundary || member_set.count(c) == 0;
      }
      if (boundary) {
        expected_outputs.insert(m);
      }
    }
    std::set<NodeId> got_outputs(region.outputs.begin(), region.outputs.end());
    ASSERT_EQ(got_outputs, expected_outputs) << "region " << r;
    boundary_total += region.outputs.size();

    // The merge-safety invariant: no input in the TFO of any member.
    const auto in_tfo = transitive_fanout(net, region.members);
    for (const NodeId in : region.inputs) {
      ASSERT_FALSE(in_tfo[in])
          << "region " << r << ": input " << in << " in member TFO";
    }
    (void)fanouts;
  }
  ASSERT_EQ(p.boundary_nodes, boundary_total);
}

TEST(Partitioner, ConeOrderIsTopological) {
  for (const uint64_t seed : {7ull, 21ull, 1234ull}) {
    const Network net = testutil::random_network(seed, 12, 600);
    const auto order = part::cone_order(net);
    std::size_t live = 0;
    for (NodeId id = 0; id < net.size(); ++id) {
      live += net.is_dead(id) ? 0 : 1;
    }
    ASSERT_EQ(order.size(), live);
    std::vector<uint32_t> pos(net.size(), ~uint32_t{0});
    for (std::size_t i = 0; i < order.size(); ++i) {
      ASSERT_EQ(pos[order[i]], ~uint32_t{0}) << "duplicate in order";
      pos[order[i]] = static_cast<uint32_t>(i);
    }
    for (const NodeId id : order) {
      const Node& nd = net.node(id);
      for (unsigned i = 0; i < nd.num_fanins; ++i) {
        ASSERT_LT(pos[nd.fanin(i)], pos[id]) << "fanin after fanout";
      }
    }
  }
}

TEST(Partitioner, InvariantsHoldAcrossFamiliesAndCaps) {
  for (const uint64_t seed : {3ull, 99ull}) {
    for (const unsigned plant : {0u, 24u}) {
      const Network net =
          bench::random_network(seed, 16, 800, bench::RandomPoPolicy::AllSinks, plant);
      for (const std::size_t cap : {1ul, 50ul, 200ul, 100000ul}) {
        PartitionParams pp;
        pp.max_region = cap;
        check_partition_invariants(net, part::partition_network(net, pp));
      }
      // Offset slicing (the stitch round's shape).
      PartitionParams pp;
      pp.max_region = 200;
      pp.first_region_cap = 100;
      check_partition_invariants(net, part::partition_network(net, pp));
    }
  }
  // The historical property-test shape keeps unreachable live junk and T1
  // barrier cells in the mix once detection ran; invariants must still hold.
  Network deep = testutil::random_network(5, 10, 500);
  check_partition_invariants(deep, part::partition_network(deep, {}));
}

OptParams part_params(unsigned jobs) {
  OptParams op;
  op.partition_jobs = jobs;
  op.partition_max_region = 300;
  op.partition_min_gates = 0;  // force the engine on test-sized networks
  op.rounds = 2;
  return op;
}

TEST(ShardRunner, DeterministicAcrossJobCountsAndEquivalent) {
  for (const unsigned plant : {0u, 20u}) {
    const Network input =
        bench::random_network(11 + plant, 16, 1500,
                              bench::RandomPoPolicy::AllSinks, plant);

    Network seq = input;
    OptParams seq_op = part_params(0);
    seq_op.partition_jobs = 0;
    optimize(seq, CostModel{}, seq_op);

    Network first;
    for (const unsigned jobs : {1u, 2u, 8u}) {
      Network net = input;
      part::PartitionOptStats stats;
      const OptSummary s =
          part::optimize_partitioned(net, CostModel{}, part_params(jobs), &stats);
      EXPECT_GE(stats.regions, 2u);
      EXPECT_GT(stats.boundary_nodes, 0u);
      EXPECT_LE(net.depth(), input.depth());
      EXPECT_GT(s.total_applied, 0u);
      if (jobs == 1) {
        first = net;
        // Soundness against the input and the sequential pipeline.
        EXPECT_EQ(check_equivalence(net, input).result, EquivalenceResult::Equivalent);
        EXPECT_EQ(check_equivalence(net, seq).result, EquivalenceResult::Equivalent);
      } else {
        expect_identical(net, first);
      }
    }

    // Byte-identical schedules too: the scheduler is deterministic, so this
    // follows from network identity — assert it end to end anyway.
    Network a = input, b = input;
    optimize(a, CostModel{}, part_params(1));
    optimize(b, CostModel{}, part_params(8));
    const PhaseAssignment pa = assign_phases(a, MultiphaseConfig{4});
    const PhaseAssignment pb = assign_phases(b, MultiphaseConfig{4});
    EXPECT_EQ(pa.stage, pb.stage);
    EXPECT_EQ(pa.output_stage, pb.output_stage);
    EXPECT_EQ(pa.estimated_dffs, pb.estimated_dffs);
  }
}

TEST(ShardRunner, DispatchesThroughOptimizeAndFallsBackWhenSmall) {
  const Network input = bench::random_network(42, 12, 400,
                                              bench::RandomPoPolicy::AllSinks, 0);
  // Below partition_min_gates the partitioned engine must match the
  // sequential pipeline exactly (it falls back to it).
  Network seq = input;
  OptParams op;
  optimize(seq, CostModel{}, op);
  Network parted = input;
  op.partition_jobs = 4;  // default partition_min_gates = 4000 > 400 gates
  optimize(parted, CostModel{}, op);
  expect_identical(parted, seq);
}

TEST(ShardRunner, SampledShardChecksRun) {
  const Network input =
      bench::random_network(77, 16, 1500, bench::RandomPoPolicy::AllSinks, 24);
  Network net = input;
  const OptParams op = part_params(2);
  part::PartitionOptStats stats;
  part::optimize_partitioned(net, CostModel{}, op, &stats);
  // Every changed shard is proved, in the main phase and in the stitch round.
  EXPECT_GT(stats.shards_changed, 0u);
  EXPECT_GE(stats.sat_checked_shards, stats.shards_changed);
  EXPECT_EQ(stats.sat_rejected_shards, 0u);
  EXPECT_EQ(check_equivalence(net, input).result, EquivalenceResult::Equivalent);
}

TEST(RunnerReentrancy, NestedRunJobsSerializesInsteadOfStackingPools) {
  EXPECT_FALSE(bench::in_job_pool());

  std::atomic<int> peak{0};
  std::atomic<int> active{0};
  std::vector<int> inner_order;

  std::vector<bench::Job> outer;
  for (int o = 0; o < 2; ++o) {
    outer.push_back([&, o](std::ostream& log) {
      EXPECT_TRUE(bench::in_job_pool());
      std::vector<bench::Job> inner;
      for (int i = 0; i < 4; ++i) {
        inner.push_back([&, o, i](std::ostream&) {
          const int now = ++active;
          int seen = peak.load();
          while (now > seen && !peak.compare_exchange_weak(seen, now)) {
          }
          // A nested pool would run inner jobs on fresh (unmarked) threads;
          // the guard keeps them on this already-pooled thread.
          EXPECT_TRUE(bench::in_job_pool());
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          --active;
          log << "inner " << o << "." << i << "\n";
        });
      }
      std::ostringstream sink;
      bench::run_jobs(std::move(inner), sink, /*threads=*/8);
      log << "outer " << o << " done\n";
    });
  }
  std::ostringstream log;
  bench::run_jobs(std::move(outer), log, /*threads=*/2);

  // Each outer worker ran its inner batch sequentially on itself, so at most
  // the two outer workers were ever concurrently inside inner jobs.
  EXPECT_LE(peak.load(), 2);
  EXPECT_FALSE(bench::in_job_pool());
  // Ordered flush survives nesting.
  const std::string text = log.str();
  EXPECT_LT(text.find("outer 0 done"), text.find("outer 1 done"));
}

TEST(RunnerReentrancy, TopLevelSequentialCallStillAllowsInnerParallelism) {
  // threads=1 runs jobs on the *calling* thread, which is not a pool worker:
  // inner parallel work (e.g. partition_jobs under `bench --jobs 1`) must
  // still be allowed to spawn its own pool.
  std::vector<bench::Job> outer;
  outer.push_back([&](std::ostream&) {
    EXPECT_FALSE(bench::in_job_pool());
  });
  std::ostringstream sink;
  bench::run_jobs(std::move(outer), sink, /*threads=*/1);
}

}  // namespace
}  // namespace t1sfq
