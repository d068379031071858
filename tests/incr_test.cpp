/// \file incr_test.cpp
/// \brief Property and regression tests for the incremental analysis layer
/// (incr/incremental_view.hpp, incr/schedule_refiner.hpp).
///
/// The contract under test: after ANY sequence of edits (sync of appended
/// nodes, replace, kill_cone/revive_cone, dangling retraction), every
/// maintained view — fanouts, consumer lists, ASAP stages, output stage, the
/// shared-spine DFF plan, the unified-JJ estimate — is bit-identical to a
/// from-scratch recomputation over the same network. Edit sequences are
/// randomized (reusing the shared generator) and include the exact journaled
/// commit/rollback shape the T1 detection guard performs.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>

#include "benchmarks/arith.hpp"
#include "benchmarks/epfl.hpp"
#include "benchmarks/random_net.hpp"
#include "core/flow.hpp"
#include "core/phase_assignment.hpp"
#include "core/t1_detection.hpp"
#include "cost/cost_model.hpp"
#include "incr/incremental_view.hpp"
#include "incr/schedule_refiner.hpp"
#include "network/mffc.hpp"
#include "network/simulation.hpp"
#include "opt/pass.hpp"
#include "random_network_test_util.hpp"

namespace t1sfq {
namespace {

CostModel default_model() {
  return CostModel(CellLibrary{}, AreaConfig{}, MultiphaseConfig{4});
}

/// Asserts every maintained view equals its from-scratch counterpart.
void expect_matches_scratch(const IncrementalView& view, const Network& net,
                            const CostModel& model) {
  const auto lvl = net.levels();
  const auto fanouts = net.fanout_counts();
  auto lists = net.fanout_lists();
  for (NodeId id = 0; id < net.size(); ++id) {
    ASSERT_EQ(view.fanout(id), fanouts[id]) << "fanout of node " << id;
    std::vector<NodeId> got = view.consumers(id);
    std::sort(got.begin(), got.end());
    std::sort(lists[id].begin(), lists[id].end());
    ASSERT_EQ(got, lists[id]) << "consumers of node " << id;
    if (!net.is_dead(id)) {
      ASSERT_EQ(view.level(id), lvl[id]) << "level of node " << id;
    }
  }
  // From scratch, the ASAP stages are the levels and the sink sits one past
  // the deepest PO.
  const std::vector<Stage> stages(lvl.begin(), lvl.end());
  const Stage out = static_cast<Stage>(model.measure_network(net).depth) + 1;
  ASSERT_EQ(view.output_stage(), out);
  // ALAP/slack: the maintained reverse relaxation must be bit-identical to a
  // from-scratch one (a fresh view's first query is exactly that), and always
  // a feasible assignment at least as late as ASAP.
  {
    Network copy = net;
    const IncrementalView fresh(copy, model);
    const auto& scratch_alap = fresh.alap_stages();
    const auto& alap = view.alap_stages();
    for (NodeId id = 0; id < net.size(); ++id) {
      if (net.is_dead(id)) continue;
      ASSERT_EQ(alap[id], scratch_alap[id]) << "ALAP of node " << id;
      ASSERT_EQ(view.slack(id), alap[id] - view.stage(id)) << "slack of node " << id;
      ASSERT_GE(view.slack(id), 0) << "slack of node " << id;
    }
    ASSERT_TRUE(assignment_feasible(net, alap, out, model.clk()));
  }
  if (view.tracks_plan()) {
    const InsertionPlan plan = plan_dffs(net, stages, out, model.clk());
    ASSERT_EQ(view.planned_dffs(), plan.total_dffs());
    const JJBreakdown want = model.network_breakdown(net);
    const JJBreakdown got = view.estimate();
    ASSERT_EQ(got.logic, want.logic);
    ASSERT_EQ(got.dff, want.dff);
    ASSERT_EQ(got.splitter, want.splitter);
    ASSERT_EQ(got.clock, want.clock);
  }
}

/// Transitive fanout of \p root (root included) over the view's consumers.
std::vector<char> tfo_of(const IncrementalView& view, const Network& net, NodeId root) {
  std::vector<char> in_tfo(net.size(), 0);
  std::vector<NodeId> stack{root};
  in_tfo[root] = 1;
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    for (const NodeId c : view.consumers(u)) {
      if (!in_tfo[c]) {
        in_tfo[c] = 1;
        stack.push_back(c);
      }
    }
  }
  return in_tfo;
}

TEST(IncrementalView, RandomizedEditSequencesMatchScratchRecompute) {
  const CostModel model = default_model();
  for (const uint64_t seed : {7ull, 21ull, 99ull, 1234ull}) {
    Network net = testutil::random_network(seed, 8, 120).cleanup();
    IncrementalView view(net, model, /*track_plan=*/true);
    expect_matches_scratch(view, net, model);

    std::mt19937_64 rng(seed * 7919 + 1);
    for (unsigned edit = 0; edit < 60; ++edit) {
      const auto pick_live = [&]() -> NodeId {
        for (unsigned tries = 0; tries < 64; ++tries) {
          const NodeId id = static_cast<NodeId>(rng() % net.size());
          if (!net.is_dead(id)) return id;
        }
        return kNullNode;
      };
      switch (rng() % 3) {
        case 0: {
          // Append a random gate (strash/folding may return an old node).
          const NodeId a = pick_live();
          const NodeId b = pick_live();
          if (a == kNullNode || b == kNullNode) break;
          switch (rng() % 3) {
            case 0: net.add_and(a, b); break;
            case 1: net.add_xor(a, b); break;
            case 2: net.add_not(a); break;
          }
          view.sync();
          break;
        }
        case 1: {
          // Reroute a target's consumers to a fresh equivalent-shaped gate
          // built from non-TFO nodes (acyclicity), detection/resub style.
          const NodeId target = pick_live();
          if (target == kNullNode || view.fanout(target) == 0) break;
          const auto in_tfo = tfo_of(view, net, target);
          std::vector<NodeId> outside;
          for (NodeId id = 0; id < net.size(); ++id) {
            if (!net.is_dead(id) && !in_tfo[id]) outside.push_back(id);
          }
          if (outside.size() < 2) break;
          const NodeId x = outside[rng() % outside.size()];
          const NodeId y = outside[rng() % outside.size()];
          const NodeId g = net.add_or(x, y);
          view.sync();
          if (g == target || (g < in_tfo.size() && in_tfo[g])) {
            break;  // strash/folding returned a TFO node: not a legal reroute
          }
          view.replace(target, g);
          break;
        }
        case 2:
          // Incremental sweep: retract everything dangling.
          view.kill_dangling_from(0);
          break;
      }
      expect_matches_scratch(view, net, model);
    }
  }
}

TEST(IncrementalView, DetectionStyleCommitAndRollbackRestoreEverything) {
  const CostModel model = default_model();
  for (const uint64_t seed : {3ull, 17ull, 4242ull}) {
    Network net = testutil::random_network(seed, 6, 80).cleanup();
    IncrementalView view(net, model, /*track_plan=*/true);

    std::mt19937_64 rng(seed);
    for (unsigned trial = 0; trial < 20; ++trial) {
      // Pick a root with a non-trivial MFFC and consumers.
      NodeId root = kNullNode;
      std::vector<NodeId> cone;
      for (unsigned tries = 0; tries < 64 && root == kNullNode; ++tries) {
        const NodeId cand = static_cast<NodeId>(rng() % net.size());
        if (net.is_dead(cand) || view.fanout(cand) == 0) continue;
        const GateType t = net.node(cand).type;
        if (t == GateType::Pi || t == GateType::Const0 || t == GateType::Const1) continue;
        cone = mffc(net, cand, view.fanouts());
        if (!cone.empty()) root = cand;
      }
      if (root == kNullNode) break;

      // Donor pin outside the TFO (and outside the cone).
      const auto in_tfo = tfo_of(view, net, root);
      NodeId donor = kNullNode;
      for (NodeId id = 0; id < net.size() && donor == kNullNode; ++id) {
        if (!net.is_dead(id) && !in_tfo[id] &&
            std::find(cone.begin(), cone.end(), id) == cone.end()) {
          donor = id;
        }
      }
      if (donor == kNullNode) break;

      const int64_t est_before = static_cast<int64_t>(view.estimate().total());
      const int64_t planned_before = view.planned_dffs();

      // Commit shape of the T1 guard: reroute, kill the cone, then roll back.
      const auto undo = view.replace(root, donor);
      view.kill_cone(cone);
      expect_matches_scratch(view, net, model);

      view.revive_cone(cone);
      view.unreplace(root, donor, undo);
      expect_matches_scratch(view, net, model);
      EXPECT_EQ(static_cast<int64_t>(view.estimate().total()), est_before);
      EXPECT_EQ(view.planned_dffs(), planned_before);
    }
  }
}

TEST(IncrementalView, RebindAfterCleanupMatchesScratchAndStaysMaintainable) {
  const CostModel model = default_model();
  for (const uint64_t seed : {7ull, 99ull, 4242ull}) {
    Network net = testutil::random_network(seed, 8, 120).cleanup();
    IncrementalView view(net, model, /*track_plan=*/true);

    std::mt19937_64 rng(seed * 31 + 5);
    const auto pick_live = [&]() -> NodeId {
      for (unsigned tries = 0; tries < 64; ++tries) {
        const NodeId id = static_cast<NodeId>(rng() % net.size());
        if (!net.is_dead(id)) return id;
      }
      return kNullNode;
    };
    const auto mutate = [&] {
      // A detection-style burst: appends, a reroute, then a dangling sweep,
      // leaving dead nodes and moved edges for the compaction to erase.
      for (unsigned edit = 0; edit < 10; ++edit) {
        const NodeId a = pick_live();
        const NodeId b = pick_live();
        if (a == kNullNode || b == kNullNode) continue;
        net.add_xor(a, b);
        view.sync();
      }
      const NodeId target = pick_live();
      if (target != kNullNode && view.fanout(target) > 0) {
        const auto in_tfo = tfo_of(view, net, target);
        for (NodeId id = 0; id < net.size(); ++id) {
          if (!net.is_dead(id) && !in_tfo[id] && id != target) {
            view.replace(target, id);
            break;
          }
        }
      }
      view.kill_dangling_from(0);
    };

    for (unsigned round = 0; round < 3; ++round) {
      mutate();
      expect_matches_scratch(view, net, model);

      // The satellite move: compact the network in place and translate the
      // view through the remap instead of rebuilding it.
      const uint64_t rebuilds_before = view.view_stats().full_rebuilds;
      std::vector<NodeId> old_to_new;
      net = net.cleanup(&old_to_new);
      view.rebind_after_cleanup(old_to_new);
      EXPECT_EQ(view.view_stats().full_rebuilds, rebuilds_before);
      expect_matches_scratch(view, net, model);
    }
    EXPECT_EQ(view.view_stats().rebinds, 3u);
  }
}

TEST(IncrementalView, DetectionAdoptsCallerViewAndHandsItBackValid) {
  const CostModel model = default_model();
  for (const uint64_t seed : {11ull, 77ull}) {
    // Planted full-adder cones give detection real T1 commits to maintain
    // the view through (and a compaction remap worth translating).
    const Network input =
        bench::random_network(seed, 8, 300, bench::RandomPoPolicy::SampleDeepest,
                              /*plant_cone_every=*/12)
            .cleanup();

    Network a = input;
    T1DetectionParams params;
    const T1DetectionStats ref = detect_and_replace_t1(a, model, params);

    Network b = input;
    IncrementalView view(b, model, /*track_plan=*/true);
    const T1DetectionStats got = detect_and_replace_t1(b, model, params, &view);

    // Identical decisions and network result vs the private-view overload.
    EXPECT_EQ(got.found, ref.found);
    EXPECT_EQ(got.used, ref.used);
    EXPECT_EQ(got.estimated_gain, ref.estimated_gain);
    ASSERT_EQ(b.size(), a.size());
    for (NodeId id = 0; id < b.size(); ++id) {
      ASSERT_EQ(b.node(id).type, a.node(id).type);
      ASSERT_EQ(b.node(id).num_fanins, a.node(id).num_fanins);
      for (unsigned i = 0; i < b.node(id).num_fanins; ++i) {
        ASSERT_EQ(b.node(id).fanin(i), a.node(id).fanin(i));
      }
    }
    ASSERT_EQ(b.pos(), a.pos());

    // The handed-back view is live over the compacted network — bit-equal to
    // a scratch build, without having been rebuilt at the hand-off.
    if (ref.used > 0) {
      EXPECT_GE(view.view_stats().rebinds, 1u);
    }
    expect_matches_scratch(view, b, model);

    // And still maintainable: a post-detection edit keeps it consistent.
    if (b.num_pis() >= 2) {
      b.add_and(b.pis()[0], b.pis()[1]);
      view.sync();
      expect_matches_scratch(view, b, model);
    }
  }
}

TEST(IncrementalView, PartitionMergeDetectAssignComposedWithMidFlowCleanup) {
  // Cross-subsystem regression for the PR-6 detect→assign shared-view path:
  // partition-parallel optimization reshapes the network, a caller-owned view
  // is rebound through an explicit mid-flow compaction (rebind_after_cleanup),
  // detection adopts that same view (rebinding it again through its own final
  // compaction), and the scheduler is seeded from the maintained state. The
  // whole composition must land on exactly the schedule the reference
  // pipeline computes on a fresh view of its own network.
  const CostModel model = default_model();
  for (const uint64_t seed : {21ull, 84ull}) {
    const Network input =
        bench::random_network(seed, 8, 400, bench::RandomPoPolicy::SampleDeepest,
                              /*plant_cone_every=*/10)
            .cleanup();

    OptParams op;
    op.partition_jobs = 3;
    op.partition_min_gates = 1;  // force the partition/merge path at this size
    op.partition_max_region = 48;

    // Reference: partitioned optimize, private-view detection, scheduler on
    // a fresh view.
    Network ref_net = input;
    optimize(ref_net, model, op);
    T1DetectionParams det;
    detect_and_replace_t1(ref_net, model, det);
    const PhaseAssignment ref = assign_phases(ref_net, model.clk());
    ASSERT_TRUE(ref.feasible);

    // Composed path under test.
    Network net = input;
    optimize(net, model, op);
    IncrementalView view(net, model, /*track_plan=*/true);
    std::vector<NodeId> old_to_new;
    net = net.cleanup(&old_to_new);  // cleanup mid-flow, before detection
    view.rebind_after_cleanup(old_to_new);
    expect_matches_scratch(view, net, model);

    const T1DetectionStats stats = detect_and_replace_t1(net, model, det, &view);
    expect_matches_scratch(view, net, model);
    const PhaseAssignment got = assign_phases(view);

    // Same physical outcome as the reference pipeline, node for node.
    ASSERT_EQ(net.size(), ref_net.size());
    for (NodeId id = 0; id < net.size(); ++id) {
      ASSERT_EQ(net.node(id).type, ref_net.node(id).type);
    }
    EXPECT_TRUE(got.feasible);
    EXPECT_EQ(got.stage, ref.stage);
    EXPECT_EQ(got.output_stage, ref.output_stage);
    // The explicit compaction plus detection's final compaction both went
    // through the translate-don't-rebuild path.
    EXPECT_GE(view.view_stats().rebinds, stats.used > 0 ? 2u : 1u);

    // End to end, the composition preserved the function of the input.
    EXPECT_TRUE(random_simulation_equal(net, input));
  }
}

TEST(IncrementalView, LegacyFullRecomputeModeKeepsIdenticalState) {
  const CostModel model = default_model();
  Network a = testutil::random_network(11, 8, 100).cleanup();
  Network b = a;  // same structure, two maintenance disciplines
  IncrementalView incr(a, model, /*track_plan=*/true);
  IncrementalView full(b, model, /*track_plan=*/true);
  full.set_full_recompute(true);

  // Identical edit script on both.
  const NodeId ga = a.add_xor(a.pi(0), a.pi(1));
  const NodeId gb = b.add_xor(b.pi(0), b.pi(1));
  ASSERT_EQ(ga, gb);
  incr.sync();
  full.sync();
  incr.replace(a.pi(2), ga);
  full.replace(b.pi(2), gb);
  incr.kill_dangling_from(0);
  full.kill_dangling_from(0);

  ASSERT_EQ(a.size(), b.size());
  for (NodeId id = 0; id < a.size(); ++id) {
    ASSERT_EQ(a.is_dead(id), b.is_dead(id));
    ASSERT_EQ(incr.fanout(id), full.fanout(id));
    if (!a.is_dead(id)) {
      ASSERT_EQ(incr.stage(id), full.stage(id));
    }
  }
  ASSERT_EQ(incr.planned_dffs(), full.planned_dffs());
  ASSERT_EQ(incr.estimate().total(), full.estimate().total());
}

TEST(IncrementalView, AlapStagesAreFeasibleAndAtLeastAsap) {
  const CostModel model = default_model();
  Network net = testutil::random_network(5, 8, 150).cleanup();
  IncrementalView view(net, model);
  const auto& alap = view.alap_stages();
  for (const NodeId id : net.topo_order()) {
    EXPECT_GE(alap[id], view.stage(id)) << "node " << id;
  }
  EXPECT_TRUE(assignment_feasible(net, alap, view.output_stage(), model.clk()));
  // Editing invalidates the cache; the recomputed ALAP reflects the edit.
  const NodeId g = net.add_and(net.pi(0), net.pi(1));
  view.sync();
  EXPECT_GE(view.alap_stages()[g], view.stage(g));
}

/// The scheduler and the guard's refiner price moves with `plan_spine_on` /
/// `t1_dedicated_on` on their own stage vectors and sink; summed over a
/// final schedule they must reproduce the insertion plan exactly — at the
/// ASAP sink and at a later one (the `output_slack` sink the view's own
/// output stage does not know about).
TEST(IncrementalView, PlanSpineOnMatchesPlanDffsAtAnySink) {
  const CostModel model = default_model();
  Network net;
  const Word a = add_pi_word(net, 12, "a");
  const Word b = add_pi_word(net, 12, "b");
  add_po_word(net, ripple_carry_adder(net, a, b, net.get_const0()), "s");
  detect_and_replace_t1(net, model);
  const IncrementalView view(net, model);

  for (const Stage slack : {Stage{0}, Stage{3}}) {
    PhaseAssignmentParams pp;
    pp.output_slack = slack;
    const PhaseAssignment pa = assign_phases(view, pp);
    ASSERT_TRUE(pa.feasible);
    const InsertionPlan plan = plan_dffs(net, pa.stage, pa.output_stage, model.clk());
    int64_t dedicated = 0;
    std::size_t t1s = 0;
    for (const NodeId id : net.topo_order()) {
      EXPECT_EQ(view.plan_spine_on(id, pa.stage, pa.output_stage), plan.spine_len[id])
          << "pin " << id << ", slack " << slack;
      if (net.node(id).type == GateType::T1) {
        dedicated += view.t1_dedicated_on(id, pa.stage);
        ++t1s;
      }
    }
    EXPECT_GT(t1s, 0u);
    EXPECT_EQ(dedicated, plan.dedicated_landings) << "slack " << slack;
  }
}

/// Every maintained plan quantity of \p view against a view rebuilt from
/// scratch over a copy of its network: each live node's stage, each pin's
/// spine and each body's dedicated landings (dead nodes included, which hold
/// 0), the plan total and the estimate.
void expect_plan_matches_rebuild(const IncrementalView& view, const Network& net,
                                 const CostModel& model, const std::string& edit) {
  Network copy = net;
  const IncrementalView fresh(copy, model, /*track_plan=*/true);
  for (NodeId id = 0; id < net.size(); ++id) {
    if (!net.is_dead(id)) {  // a dead node keeps a stale stage
      ASSERT_EQ(view.stage(id), fresh.stage(id)) << edit << ": stage of node " << id;
    }
    ASSERT_EQ(view.plan_spine(id), fresh.plan_spine(id)) << edit << ": spine of pin " << id;
    ASSERT_EQ(view.t1_dedicated(id), fresh.t1_dedicated(id))
        << edit << ": dedicated landings of body " << id;
  }
  ASSERT_EQ(view.output_stage(), fresh.output_stage()) << edit;
  ASSERT_EQ(view.planned_dffs(), fresh.planned_dffs()) << edit;
  const JJBreakdown got = view.estimate();
  const JJBreakdown want = fresh.estimate();
  ASSERT_EQ(got.logic, want.logic) << edit;
  ASSERT_EQ(got.dff, want.dff) << edit;
  ASSERT_EQ(got.splitter, want.splitter) << edit;
  ASSERT_EQ(got.clock, want.clock) << edit;
}

/// The shift rule re-prices a plan quantity only where two of the stages it
/// reads moved by different amounts. Ripple-carry chains of XOR3/MAJ3 full
/// adders are its hardest case. The operands arrive through a shared XOR
/// delay line, some level with their carry and some later than it: fusing a
/// bit into a T1 body then delays its carry by up to two stages, which
/// shifts the whole chain above it uniformly, while a body whose late
/// operand dominates its stage stays put and only re-orders its landing
/// slots. Side consumers hang off some carries, and the balanced sink either
/// shifts with the final carry or sits on a deeper side output. Bits are
/// fused in a shuffled order, through the detection guard's exact edit shape
/// (tap replaces, cone kill) and, for a third of them, its rollback (cone
/// revival, unreplaces, tap and body kills); after every single edit the
/// maintained plan must equal a rebuilt view's.
TEST(IncrementalView, ShiftRuleKeepsThePlanExactOnRippleCarryT1Chains) {
  constexpr unsigned kBits = 20;
  for (const unsigned phases : {4u, 5u}) {
    const CostModel model(CellLibrary{}, AreaConfig{}, MultiphaseConfig{phases});
    for (const bool deep_sink : {false, true}) {
      for (const uint64_t seed : {1ull, 2ull, 3ull}) {
        Network net;
        const Word a = add_pi_word(net, kBits, "a");
        const Word b = add_pi_word(net, kBits, "b");
        const Word e = add_pi_word(net, kBits + 8, "e");
        const NodeId side = net.add_pi("side");
        std::vector<NodeId> delay{e[0]};  // delay[k] sits at stage k
        for (unsigned k = 1; k < e.size(); ++k) {
          delay.push_back(net.add_xor(delay.back(), e[k]));
        }
        NodeId carry = net.add_pi("cin");
        std::vector<std::pair<NodeId, NodeId>> adders;  // (sum, carry) roots per bit
        for (unsigned i = 0; i < kBits; ++i) {
          const NodeId x = net.add_xor(a[i], delay[i + (i * 7) % 5]);
          const NodeId y = i % 2 ? net.add_xor(b[i], delay[i]) : b[i];
          const NodeId sum = net.add_xor3(x, y, carry);
          const NodeId next = net.add_maj(x, y, carry);
          adders.emplace_back(sum, next);
          net.add_po(sum);
          if (i % 3 == 1) {
            net.add_po(net.add_and(next, side));  // a consumer that never shifts alone
          }
          carry = next;
        }
        net.add_po(carry);
        if (deep_sink) {
          NodeId deep = delay.back();
          for (unsigned k = 0; k < 3 * kBits; ++k) {
            deep = net.add_xor(deep, e[k % e.size()]);
          }
          net.add_po(deep);
        }
        IncrementalView view(net, model, /*track_plan=*/true);
        expect_plan_matches_rebuild(view, net, model, "build");

        std::mt19937_64 rng(seed);
        std::vector<unsigned> order(kBits);
        for (unsigned i = 0; i < kBits; ++i) order[i] = i;
        std::shuffle(order.begin(), order.end(), rng);
        std::size_t kept = 0;
        const Stage sink_before = view.output_stage();
        for (const unsigned bit : order) {
          const auto [sum, next] = adders[bit];
          const std::string at = "phases " + std::to_string(phases) + ", deep sink " +
                                 std::to_string(deep_sink) + ", seed " + std::to_string(seed) +
                                 ", bit " + std::to_string(bit);
          const Node& root = net.node(sum);
          const NodeId body = net.add_t1(root.fanin(0), root.fanin(1), root.fanin(2));
          const NodeId sum_tap = net.add_t1_port(body, T1PortFn::Sum);
          const NodeId carry_tap = net.add_t1_port(body, T1PortFn::Carry);
          const auto undo_sum = view.replace(sum, sum_tap);
          expect_plan_matches_rebuild(view, net, model, at + ", replace sum");
          const auto undo_carry = view.replace(next, carry_tap);
          expect_plan_matches_rebuild(view, net, model, at + ", replace carry");
          const std::vector<NodeId> killed = view.kill_cone({sum, next});
          expect_plan_matches_rebuild(view, net, model, at + ", kill cone");
          if (::testing::Test::HasFatalFailure()) return;
          if (rng() % 3 != 0) {
            ++kept;
            continue;
          }
          view.revive_cone(killed);
          expect_plan_matches_rebuild(view, net, model, at + ", revive cone");
          view.unreplace(next, carry_tap, undo_carry);
          expect_plan_matches_rebuild(view, net, model, at + ", unreplace carry");
          view.unreplace(sum, sum_tap, undo_sum);
          expect_plan_matches_rebuild(view, net, model, at + ", unreplace sum");
          view.kill(carry_tap);
          view.kill(sum_tap);
          view.kill(body);
          expect_plan_matches_rebuild(view, net, model, at + ", kill body");
          if (::testing::Test::HasFatalFailure()) return;
        }
        EXPECT_GT(kept, kBits / 2);
        // The fused chain is slower: the sink moved, unless a deeper output holds it.
        EXPECT_EQ(view.output_stage() == sink_before, deep_sink);
      }
    }
  }
}

/// The shift rule on T1-mapped random nets: reroutes that deepen or shorten
/// a pin shift its cone by uneven amounts around many bodies at once, so
/// slot orders change under bodies whose other producers moved with them.
/// A third of the reroutes are rolled back. After every edit the maintained
/// plan must equal a rebuilt view's.
TEST(IncrementalView, ShiftRuleKeepsThePlanExactUnderReroutesOfT1MappedNets) {
  for (const unsigned phases : {4u, 5u}) {
    const CostModel model(CellLibrary{}, AreaConfig{}, MultiphaseConfig{phases});
    for (const uint64_t seed : {5ull, 6ull}) {
      Network net = bench::random_network(seed, /*num_pis=*/16, /*num_gates=*/300,
                                          bench::RandomPoPolicy::AllSinks,
                                          /*plant_cone_every=*/12)
                        .cleanup();
      IncrementalView view(net, model, /*track_plan=*/true);
      ASSERT_GT(detect_and_replace_t1(net, model, T1DetectionParams{}, &view).used, 0u);
      expect_plan_matches_rebuild(view, net, model, "detect");

      std::mt19937_64 rng(seed);
      std::size_t edits = 0;
      for (unsigned trial = 0; trial < 120 && edits < 60; ++trial) {
        const NodeId target = static_cast<NodeId>(rng() % net.size());
        const GateType t = net.node(target).type;
        if (net.is_dead(target) || view.fanout(target) == 0 || !is_clocked(t) ||
            t == GateType::T1) {
          continue;
        }
        const auto in_tfo = tfo_of(view, net, target);
        std::vector<NodeId> outside;
        for (NodeId id = 0; id < net.size(); ++id) {
          const GateType o = net.node(id).type;
          if (!net.is_dead(id) && !in_tfo[id] && o != GateType::T1 &&
              o != GateType::Const0 && o != GateType::Const1) {
            outside.push_back(id);
          }
        }
        if (outside.size() < 2) continue;
        const NodeId x = outside[rng() % outside.size()];
        const NodeId y = outside[rng() % outside.size()];
        const NodeId g = net.add_or(x, y);
        view.sync();
        if (g == target || (g < in_tfo.size() && in_tfo[g])) continue;
        const std::string at = "phases " + std::to_string(phases) + ", seed " +
                               std::to_string(seed) + ", edit " + std::to_string(edits);
        const auto undo = view.replace(target, g);
        expect_plan_matches_rebuild(view, net, model, at + ", replace");
        if (rng() % 3 == 0) {
          view.unreplace(target, g, undo);
          expect_plan_matches_rebuild(view, net, model, at + ", unreplace");
        }
        if (::testing::Test::HasFatalFailure()) return;
        ++edits;
      }
      EXPECT_GE(edits, 30u);
    }
  }
}

/// Regression: the incremental commit path retracts a cone's whole dangling
/// closure eagerly, so a stale candidate (enumerated at round start) can name
/// cascade-killed nodes — it must be skipped via the consumed set, never
/// applied. Greedy unguarded detection on junk-rich networks (few POs, many
/// unreachable gates) used to corrupt the heap here; the outputs must also
/// stay functionally intact.
TEST(IncrementalView, GreedyDetectionOnJunkRichNetworksIsSafeAndSound) {
  const CostModel model = default_model();
  for (const uint64_t seed : {2ull, 13ull, 77ull}) {
    Network net = testutil::random_network(seed, 8, 150);  // no cleanup: keep junk
    const Network golden = net;
    T1DetectionParams det;
    det.require_positive_gain = false;  // force matches in, guard off
    det.min_cuts_per_group = 1;
    detect_and_replace_t1(net, model, det);
    EXPECT_TRUE(random_simulation_equal(net, golden, 8)) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Schedule-aware guard (refine_schedule)
// ---------------------------------------------------------------------------

TEST(ScheduleRefiner, NeverWorseThanTheAsapPlan) {
  const CostModel model = default_model();
  Network net = bench::epfl_voter(25);
  OptParams op;
  op.rounds = 1;
  optimize(net, model, op);
  T1DetectionParams det;  // default: ASAP-only guard
  detect_and_replace_t1(net, model, det);
  IncrementalView view(net, model, /*track_plan=*/true);
  for (NodeId id = 0; id < net.size(); ++id) {
    if (!net.is_dead(id) && net.node(id).type == GateType::T1) {
      EXPECT_LE(refine_schedule(view, {id}), view.planned_dffs());
    }
  }
}

/// The ROADMAP's "schedule-aware detection guard" item, pinned: on the
/// optimized voter (majority trees over a popcount reduction) the ASAP-only
/// guard declines candidates whose landing chains a few coordinate-descent
/// sweeps align. The rescue must convert strictly more T1 cells AND the full
/// flow (phase assignment realizing the refined schedule) must end at
/// strictly less physical area — the rescue pays landing DFFs for larger
/// logic-fusion wins, so the ASAP estimate alone may rise.
TEST(ScheduleRefiner, ScheduleAwareGuardConvertsVoterCandidatesAsapDeclines) {
  const Network seed = bench::epfl_voter(125);

  FlowParams p;
  p.detection.schedule_aware_guard = false;
  const FlowResult asap = run_flow(seed, p);
  p.detection.schedule_aware_guard = true;
  const FlowResult sched = run_flow(seed, p);

  EXPECT_GT(sched.metrics.t1_used, asap.metrics.t1_used);
  EXPECT_LT(sched.metrics.area_jj, asap.metrics.area_jj);
}

}  // namespace
}  // namespace t1sfq
