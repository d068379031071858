#include "core/phase_assignment.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "benchmarks/arith.hpp"
#include "benchmarks/random_net.hpp"
#include "benchmarks/suite.hpp"
#include "core/t1_detection.hpp"
#include "incr/incremental_view.hpp"
#include "incr/schedule_refiner.hpp"

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

PhaseAssignmentParams exact_milp() {
  PhaseAssignmentParams p;
  p.engine = PhaseEngine::ExactMilp;
  return p;
}

TEST(PhaseAssignment, ChainWithinWindowNeedsNoDffs) {
  // A depth-4 chain whose side input feeds every level: with n >= 4 phases
  // every edge fits one clock window; with n = 1 the side input needs a
  // spine covering all but the first level.
  const Network net = chain(4);
  const auto pa4 = assign_phases(net, MultiphaseConfig{4});
  EXPECT_TRUE(pa4.feasible);
  EXPECT_EQ(pa4.estimated_dffs, 0);
  const auto pa8 = assign_phases(net, MultiphaseConfig{8});
  EXPECT_EQ(pa8.estimated_dffs, 0);
  const auto pa1 = assign_phases(net, MultiphaseConfig{1});
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
  const auto pa1 = assign_phases(net, MultiphaseConfig{1});
  // Single phase: the x -> and edge spans 10 levels: 9 DFFs; plus `o` feeding
  // all chain stages needs its own spine of 8.
  EXPECT_EQ(pa1.estimated_dffs, 9 + 8);
  const auto pa4 = assign_phases(net, MultiphaseConfig{4});
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
  const auto pa = assign_phases(net, MultiphaseConfig{4});
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
  const auto pa = assign_phases(net, MultiphaseConfig{3});
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
  const auto pa = assign_phases(net, MultiphaseConfig{4});
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
  const auto pa = assign_phases(net, MultiphaseConfig{8});
  // With 8 phases everything fits in one window; optimal is zero DFFs.
  EXPECT_EQ(pa.estimated_dffs, 0);
}

TEST(PhaseAssignment, MilpMatchesHeuristicOnSmallAdder) {
  Network net;
  const Word a = add_pi_word(net, 3, "a");
  const Word b = add_pi_word(net, 3, "b");
  add_po_word(net, ripple_carry_adder(net, a, b, net.get_const0()), "s");
  const auto h = assign_phases(net, MultiphaseConfig{4});
  const auto m = assign_phases(net, MultiphaseConfig{4}, exact_milp());
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
  detect_and_replace_t1(net, CostModel{});
  net = net.cleanup();
  ASSERT_EQ(net.count_of(GateType::T1), 1u);
  const auto m = assign_phases(net, MultiphaseConfig{4}, exact_milp());
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
  const auto pa = assign_phases(net, MultiphaseConfig{4});
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
  const auto low = assign_phases(net, MultiphaseConfig{n});
  const auto high = assign_phases(net, MultiphaseConfig{2 * n});
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
    detect_and_replace_t1(net, CostModel{});  // plant chained T1 bodies

    for (const unsigned phases : {4u, 6u}) {
      for (const Stage slack : {Stage{0}, Stage{3}}) {
        PhaseAssignmentParams p;
        p.output_slack = slack;
        p.incremental = false;
        const auto legacy = assign_phases(net, MultiphaseConfig{phases}, p);
        p.incremental = true;
        const auto incr = assign_phases(net, MultiphaseConfig{phases}, p);
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
    PhaseAssignmentParams p;
    p.output_slack = slack;
    p.incremental = false;
    const auto full_sweep = assign_phases(net, model.clk(), p);
    p.incremental = true;
    const auto from_view = assign_phases(view, p);
    ASSERT_TRUE(from_view.feasible);
    EXPECT_EQ(from_view.stage, full_sweep.stage) << "slack " << slack;
    EXPECT_EQ(from_view.output_stage, full_sweep.output_stage);
    EXPECT_EQ(from_view.estimated_dffs, full_sweep.estimated_dffs);
  }
}

/// The slot-order search as first written: every slot permutation in
/// `std::next_permutation` order, landing chains summed fanin by fanin with
/// an early exit on an infeasible one, the first minimum kept.
std::array<int, 3> reference_slot_perm(const std::array<Stage, 3>& sd, Stage sj, Stage n,
                                       int64_t* cost_out) {
  constexpr int64_t kInf = std::numeric_limits<int64_t>::max() / 4;
  const auto landing = [&](Stage from, Stage t) -> int64_t {
    if (t < from) return kInf;
    if (t == from) return 0;
    const Stage gap = t - from;
    return gap % n == 0 ? gap / n : gap / n + 1;
  };
  std::array<int, 3> best{1, 2, 3};
  int64_t best_cost = kInf;
  std::array<int, 3> perm{1, 2, 3};
  do {
    int64_t cost = 0;
    for (unsigned i = 0; i < 3 && cost < kInf; ++i) {
      const int64_t c = landing(sd[i], sj - perm[i]);
      cost = c >= kInf ? kInf : cost + c;
    }
    if (cost < best_cost) {
      best_cost = cost;
      best = perm;
    }
  } while (std::next_permutation(perm.begin(), perm.end()));
  *cost_out = best_cost;
  return best;
}

/// `t1_slot_perm` picks the loop's slots and cost on every stage tuple of a
/// box wide enough for multi-DFF chains, infeasible tuples (a producer at
/// or past a slot) included. The body reads one producer through another
/// body's tap, which carries no stage of its own. On the same box the slot
/// model and eq. 3 agree: `t1_slot_order` finds a feasible order exactly
/// when the body sits at or after `t1_body_stage` of its producers.
TEST(T1SlotPerm, MatchesThePermutationLoopOnEveryStageTuple) {
  constexpr int64_t kInf = std::numeric_limits<int64_t>::max() / 4;
  Network net;
  const NodeId a = net.add_pi();
  const NodeId b = net.add_pi();
  const NodeId c = net.add_pi();
  const NodeId inner = net.add_t1(a, b, c);
  const NodeId tap = net.add_t1_port(inner, T1PortFn::Carry);
  const NodeId body = net.add_t1(b, tap, c);
  net.add_po(net.add_t1_port(body, T1PortFn::Sum));
  std::vector<Stage> stage(net.size(), 0);
  stage[tap] = -1;  // read through `inner`, never directly
  std::array<NodeId, 3> producer;
  for (unsigned i = 0; i < 3; ++i) {
    producer[i] = resolve_producer(net, net.node(body).fanin(i));
  }
  for (const Stage n : {Stage{4}, Stage{5}, Stage{8}}) {
    const Stage box = 2 * n + 2;
    std::size_t feasible = 0;
    std::size_t infeasible = 0;
    for (Stage sj = 0; sj <= box + 3; ++sj) {
      for (Stage s0 = 0; s0 <= box; ++s0) {
        for (Stage s1 = 0; s1 <= box; ++s1) {
          for (Stage s2 = 0; s2 <= box; ++s2) {
            const std::array<Stage, 3> sd{s0, s1, s2};
            for (unsigned i = 0; i < 3; ++i) stage[producer[i]] = sd[i];
            stage[body] = sj;
            int64_t want_cost = 0;
            int64_t got_cost = 0;
            const auto want = reference_slot_perm(sd, sj, n, &want_cost);
            const MultiphaseConfig clk{static_cast<unsigned>(n)};
            ASSERT_EQ(t1_slot_perm(net, stage, body, clk, &got_cost), want)
                << "n " << n << ", body " << sj << ", producers " << s0 << " " << s1 << " " << s2;
            ASSERT_EQ(got_cost, want_cost);
            int64_t order_cost = 0;
            t1_slot_order(sd, sj, clk, &order_cost);
            ASSERT_EQ(order_cost < kInf, sj >= t1_body_stage(s0, s1, s2))
                << "n " << n << ", body " << sj << ", producers " << s0 << " " << s1 << " " << s2;
            (want_cost >= kInf ? infeasible : feasible) += 1;
          }
        }
      }
    }
    EXPECT_GT(feasible, 0u);
    EXPECT_GT(infeasible, 0u);
  }
}

/// `descend_stage` with every candidate priced over the whole scope (every
/// pin's `plan_spine_on` and every T1's `t1_dedicated_on`), as the move was
/// first specified, before the move priced the consumer edges it cannot
/// reach once per call.
bool reference_descend(const IncrementalView& view, std::vector<Stage>& stage, Stage sink,
                       NodeId u) {
  const Network& net = view.net();
  const Stage n = static_cast<Stage>(view.model().clk().phases);
  const Stage lo = sched_local_lower_bound(net, stage, u);
  const Stage hi = stage_upper_bound(view, stage, sink, u);
  if (hi <= lo) return false;

  std::vector<NodeId> pins, t1s;
  const auto add_t1 = [&](NodeId j) {
    t1s.push_back(j);
    for (uint8_t i = 0; i < net.node(j).num_fanins; ++i) pins.push_back(net.node(j).fanin(i));
  };
  const Node& node = net.node(u);
  const bool is_t1 = node.type == GateType::T1;
  if (is_t1) {
    for (const NodeId c : view.consumers(u)) {
      if (net.node(c).type == GateType::T1Port) pins.push_back(c);
    }
    add_t1(u);
  } else {
    pins.push_back(u);
  }
  for (uint8_t i = 0; i < node.num_fanins; ++i) pins.push_back(node.fanin(i));
  for_each_timed_consumer(view, u, [&](NodeId c) {
    if (c != kNullNode && net.node(c).type == GateType::T1) add_t1(c);
  });
  for (auto* v : {&pins, &t1s}) {
    std::sort(v->begin(), v->end());
    v->erase(std::unique(v->begin(), v->end()), v->end());
  }
  const auto cost = [&] {
    int64_t c = 0;
    for (const NodeId p : pins) c += view.plan_spine_on(p, stage, sink);
    for (const NodeId j : t1s) c += view.t1_dedicated_on(j, stage);
    return c;
  };
  const auto set_stage = [&](Stage x) {
    stage[u] = x;
    if (!is_t1) return;
    for (const NodeId c : view.consumers(u)) {
      if (net.node(c).type == GateType::T1Port) stage[c] = x;
    }
  };
  const Stage original = stage[u];
  Stage best_stage = original;
  int64_t best_cost = cost();
  const auto try_range = [&](Stage from, Stage to) {
    for (Stage x = from; x <= to; ++x) {
      if (x == original) continue;
      set_stage(x);
      if (const int64_t c = cost(); c < best_cost) {
        best_cost = c;
        best_stage = x;
      }
    }
  };
  if (hi - lo <= 6 * n) {
    try_range(lo, hi);
  } else {
    try_range(lo, lo + 3 * n);
    try_range(hi - 3 * n, hi);
  }
  set_stage(best_stage);
  return best_stage != original;
}

/// Descent sweeps over T1-bearing random nets, from the ASAP and from the
/// ALAP stages, in reverse and forward topological order (so moves go both
/// later and earlier): every move must pick what whole-scope pricing picks,
/// plain moves (no T1 in scope) and T1-coupled ones alike.
TEST(DescendStage, MovesLikeWholeScopePricing) {
  for (const unsigned plant : {24u, 200u}) {
    for (const unsigned phases : {4u, 5u}) {
      Network net = bench::random_network(/*seed=*/3, /*num_pis=*/32, /*num_gates=*/800,
                                          bench::RandomPoPolicy::AllSinks, plant);
      net = net.cleanup();
      const CostModel model(CellLibrary{}, AreaConfig{}, MultiphaseConfig{phases});
      IncrementalView view(net, model, /*track_plan=*/true);
      ASSERT_GT(detect_and_replace_t1(net, model, T1DetectionParams{}, &view).used, 0u);

      const Stage sink = view.output_stage() + 2;  // slack opens the PO windows
      std::vector<NodeId> order = net.topo_order();
      for (const bool from_alap : {false, true}) {
        std::vector<Stage> fast(net.size());
        for (NodeId id = 0; id < net.size(); ++id) {
          fast[id] = from_alap ? view.alap_stages()[id] : view.stage(id);
        }
        std::vector<Stage> reference = fast;
        StageScope scope;
        std::size_t moves = 0;
        for (int sweep = 0; sweep < 3; ++sweep) {
          std::reverse(order.begin(), order.end());  // reverse, forward, reverse
          for (const NodeId u : order) {
            if (!is_clocked(net.node(u).type)) continue;
            const bool moved = descend_stage(view, fast, sink, u, scope);
            ASSERT_EQ(moved, reference_descend(view, reference, sink, u))
                << "node " << u << ", plant " << plant << ", " << phases << " phases";
            ASSERT_EQ(fast[u], reference[u]) << "node " << u;
            moves += moved;
          }
        }
        EXPECT_EQ(fast, reference);
        EXPECT_GT(moves, 0u);
      }
    }
  }
}

/// Descent as the flow scheduler and the guard's refiner drive it, on
/// T1-mapped Table-I circuits and a T1-dense random net: reverse-topological
/// sweeps to a fixed point from the ASAP seed, at the balanced sink and two
/// stages past it (the scheduler's shape), then, around every T1 body with
/// its producers as seeds, deepest-first sweeps over the bodies' fanin and
/// fanout neighbourhood from the ASAP seed at the view's own sink (the
/// refiner's shape). Every move must pick what whole-scope pricing picks.
TEST(DescendStage, SchedulerAndRefinerSweepsMoveLikeWholeScopePricing) {
  std::vector<std::pair<std::string, Network>> nets;
  for (const auto& c : bench::make_suite_scaled(8)) {
    nets.emplace_back(c.name, c.generate().cleanup());
  }
  nets.emplace_back("random", bench::random_network(/*seed=*/11, /*num_pis=*/24,
                                                    /*num_gates=*/600,
                                                    bench::RandomPoPolicy::AllSinks, 24)
                                  .cleanup());
  std::size_t t1_moves = 0;
  for (auto& [name, net] : nets) {
    const CostModel model(CellLibrary{}, AreaConfig{}, MultiphaseConfig{4});
    IncrementalView view(net, model, /*track_plan=*/true);
    detect_and_replace_t1(net, model, T1DetectionParams{}, &view);
    std::vector<Stage> asap(net.size());
    for (NodeId id = 0; id < net.size(); ++id) asap[id] = view.stage(id);
    const auto moves_match = [&](const std::vector<NodeId>& order, Stage sink,
                                 unsigned max_sweeps, std::vector<Stage>& fast) {
      std::vector<Stage> reference = fast;
      StageScope scope;
      for (unsigned sweep = 0; sweep < max_sweeps; ++sweep) {
        bool changed = false;
        for (const NodeId u : order) {
          if (!is_clocked(net.node(u).type)) continue;
          const bool moved = descend_stage(view, fast, sink, u, scope);
          ASSERT_EQ(moved, reference_descend(view, reference, sink, u))
              << name << ": node " << u << ", sweep " << sweep;
          ASSERT_EQ(fast, reference) << name << ": node " << u;
          changed |= moved;
          t1_moves += moved && !scope.t1s.empty();
        }
        if (!changed) break;
      }
    };

    std::vector<NodeId> order = net.topo_order();
    std::reverse(order.begin(), order.end());
    for (const Stage slack : {Stage{0}, Stage{2}}) {
      std::vector<Stage> fast = asap;
      moves_match(order, view.output_stage() + slack, 12, fast);
      if (::testing::Test::HasFatalFailure()) return;
    }

    std::vector<NodeId> hood;
    for (NodeId j = 0; j < net.size(); ++j) {
      if (net.is_dead(j) || net.node(j).type != GateType::T1) continue;
      hood.push_back(j);
      for (unsigned i = 0; i < 3; ++i) {
        const NodeId d = resolve_producer(net, net.node(j).fanin(i));
        if (is_clocked(net.node(d).type)) hood.push_back(d);
      }
      for_each_timed_consumer(view, j, [&](NodeId c) {
        if (c != kNullNode) hood.push_back(c);
      });
    }
    std::sort(hood.begin(), hood.end());
    hood.erase(std::unique(hood.begin(), hood.end()), hood.end());
    std::stable_sort(hood.begin(), hood.end(),
                     [&](NodeId a, NodeId b) { return asap[a] > asap[b]; });
    std::vector<Stage> fast = asap;
    moves_match(hood, view.output_stage(), 2, fast);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(t1_moves, 0u);
}

}  // namespace
}  // namespace t1sfq
