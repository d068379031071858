/// Unit tests for the pre-mapping optimization subsystem (src/opt/): the
/// rewrite structure database, the three passes in isolation, the PassManager
/// guard, and the flow integration.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>

#include "benchmarks/arith.hpp"
#include "core/flow.hpp"
#include "core/report.hpp"
#include "network/equivalence.hpp"
#include "network/npn.hpp"
#include "network/simulation.hpp"
#include "opt/balancing.hpp"
#include "opt/cut_rewriting.hpp"
#include "opt/pass.hpp"
#include "opt/resubstitution.hpp"
#include "opt/rewrite_db.hpp"

namespace t1sfq {
namespace {

Network small_adder(unsigned bits) {
  Network net("rca" + std::to_string(bits));
  const Word a = add_pi_word(net, bits, "a");
  const Word b = add_pi_word(net, bits, "b");
  add_po_word(net, ripple_carry_adder(net, a, b, net.get_const0()), "s");
  return net;
}

/// Truth table of a single-PO network over its PIs.
TruthTable po_function(const Network& net) { return simulate_truth_tables(net)[0]; }

/// Rewrite-DB match of \p f (at most 4 variables).
std::optional<RewriteMatch> match(const RewriteDb& db, const TruthTable& f) {
  return db.match(f.word(0), f.num_vars());
}

// ---------------------------------------------------------------------------
// RewriteDb
// ---------------------------------------------------------------------------

TEST(RewriteDb, SingleCellFunctionsCostTheirMarginal) {
  const RewriteDb& db = RewriteDb::instance();
  EXPECT_GT(db.num_settled(), 60000u);  // the default JJ budget reaches almost everything
  // maj3 = 0xe8 on vars {0,1,2}, zero-extended to 4 vars: one Maj3 cell at
  // its library JJ cost plus the clock share.
  const RewriteDb::Params defaults;
  const TruthTable maj = tt3::maj3().extend_to(4);
  const auto m = match(db, maj);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->jj_cost, defaults.lib.jj_maj3 + defaults.clock_jj);
  EXPECT_EQ(m->depth, 1u);
  // Projection costs zero JJ.
  const auto proj = match(db, TruthTable::nth_var(4, 2));
  ASSERT_TRUE(proj.has_value());
  EXPECT_EQ(proj->jj_cost, 0u);
}

TEST(RewriteDb, InstantiationMatchesTheFunction) {
  const RewriteDb& db = RewriteDb::instance();
  std::mt19937_64 rng(42);
  for (int iter = 0; iter < 200; ++iter) {
    const uint16_t func = static_cast<uint16_t>(rng());
    TruthTable f(4);
    f.set_word(0, func);
    const auto m = match(db, f);
    if (!m) continue;
    Network net;
    std::vector<NodeId> leaves;
    for (int i = 0; i < 4; ++i) {
      leaves.push_back(net.add_pi());
    }
    net.add_po(db.instantiate(*m, leaves, net));
    EXPECT_EQ(po_function(net), f) << "func 0x" << std::hex << func;
  }
}

TEST(RewriteDb, NpnFallbackBridgesWithInverters) {
  // A tiny database (budget = one 2-input cell) knows And2 but not e.g.
  // x0' & x1'; the NPN fallback must still produce a correct structure
  // through inverters.
  RewriteDb::Params p;
  p.max_jj = p.lib.jj_maj3 + p.clock_jj;  // every single cell fits, no pairs
  p.npn_index_jj = p.max_jj;
  const RewriteDb db(p);
  std::mt19937_64 rng(7);
  std::size_t fallback_hits = 0;
  for (int iter = 0; iter < 400; ++iter) {
    const uint16_t func = static_cast<uint16_t>(rng());
    TruthTable f(4);
    f.set_word(0, func);
    const auto m = match(db, f);
    if (!m) continue;
    const bool bridged = m->output_neg || m->input_neg[0] || m->input_neg[1] ||
                         m->input_neg[2] || m->input_neg[3];
    fallback_hits += bridged ? 1 : 0;
    Network net;
    std::vector<NodeId> leaves;
    for (int i = 0; i < 4; ++i) {
      leaves.push_back(net.add_pi());
    }
    net.add_po(db.instantiate(*m, leaves, net));
    EXPECT_EQ(po_function(net), f) << "func 0x" << std::hex << func;
  }
  EXPECT_GT(fallback_hits, 0u);
}

TEST(RewriteDb, NpnIndexAgreesWithTheCanonizer) {
  // The database indexes NPN classes with a fast internal canonizer; this
  // pins it against npn.hpp: for any sampled function whose npn_canonize
  // representative matches the representative of a cost<=1 structure, the
  // fallback lookup must hit (a divergence makes the lower_bound miss and
  // match() return nullopt for an indexed class).
  RewriteDb::Params p;
  p.max_jj = p.lib.jj_maj3 + p.clock_jj;  // every single cell fits, no pairs
  p.npn_index_jj = p.max_jj;
  const RewriteDb db(p);

  // All cost<=1 functions: seeds plus one gate over projections/constants.
  std::vector<TruthTable> members;
  members.push_back(TruthTable::constant(4, false));
  members.push_back(TruthTable::constant(4, true));
  for (unsigned v = 0; v < 4; ++v) {
    members.push_back(TruthTable::nth_var(4, v));
  }
  const std::size_t seeds = members.size();
  for (std::size_t i = 0; i < seeds; ++i) {
    members.push_back(~members[i]);
    for (std::size_t j = i; j < seeds; ++j) {
      members.push_back(members[i] & members[j]);
      members.push_back(members[i] | members[j]);
      members.push_back(members[i] ^ members[j]);
      members.push_back(~(members[i] & members[j]));
      members.push_back(~(members[i] | members[j]));
      members.push_back(~(members[i] ^ members[j]));
      for (std::size_t k = j; k < seeds; ++k) {
        members.push_back(members[i] & members[j] & members[k]);
        members.push_back(members[i] | members[j] | members[k]);
        members.push_back(members[i] ^ members[j] ^ members[k]);
        members.push_back(TruthTable::maj(members[i], members[j], members[k]));
      }
    }
  }
  // Random NPN transforms of indexed members are in an indexed class by
  // construction: the fallback must hit every one of them.
  std::mt19937_64 rng(1234);
  for (int iter = 0; iter < 150; ++iter) {
    TruthTable f = members[rng() % members.size()];
    for (unsigned v = 0; v < 4; ++v) {
      if (rng() & 1) {
        f = f.flip_var(v);
      }
    }
    std::vector<unsigned> perm{0, 1, 2, 3};
    std::shuffle(perm.begin(), perm.end(), rng);
    f = f.permute(perm);
    if (rng() & 1) {
      f = ~f;
    }
    EXPECT_TRUE(match(db, f).has_value()) << "0x" << f.to_hex();
  }
}

TEST(RewriteDb, SmallerSupportFunctionsWork) {
  const RewriteDb& db = RewriteDb::instance();
  // 2-variable cut function (xor2) must match and instantiate over 2 leaves.
  TruthTable f = TruthTable::from_binary("0110");
  const auto m = match(db, f);
  ASSERT_TRUE(m.has_value());
  Network net;
  std::vector<NodeId> leaves{net.add_pi(), net.add_pi()};
  net.add_po(db.instantiate(*m, leaves, net));
  EXPECT_EQ(po_function(net), f.extend_to(2));
}

// ---------------------------------------------------------------------------
// Cut rewriting
// ---------------------------------------------------------------------------

TEST(CutRewriting, CompressesFullAdders) {
  Network net = small_adder(8);
  const Network golden = net.cleanup();
  const std::size_t gates_before = net.num_gates();
  const uint32_t depth_before = net.depth();

  CutRewritingPass pass{CostModel{}, OptParams{}};
  const std::size_t applied = pass.run(net);
  net = net.cleanup();

  EXPECT_GT(applied, 0u);
  EXPECT_LT(net.num_gates(), gates_before);
  EXPECT_LE(net.depth(), depth_before);
  // Full adders become xor3/maj3 pairs.
  EXPECT_GT(net.count_of(GateType::Xor3) + net.count_of(GateType::Maj3), 0u);
  EXPECT_EQ(check_equivalence(net, golden).result, EquivalenceResult::Equivalent);
}

TEST(CutRewriting, LeavesOptimalNetworksAlone) {
  Network net;
  const NodeId a = net.add_pi();
  const NodeId b = net.add_pi();
  const NodeId c = net.add_pi();
  net.add_po(net.add_maj(a, b, c));
  CutRewritingPass pass{CostModel{}, OptParams{}};
  EXPECT_EQ(pass.run(net), 0u);
  EXPECT_EQ(net.count_of(GateType::Maj3), 1u);
}

// ---------------------------------------------------------------------------
// Balancing
// ---------------------------------------------------------------------------

TEST(Balancing, RebalancesLeftFoldChains) {
  Network net;
  std::vector<NodeId> xs;
  for (int i = 0; i < 9; ++i) {
    xs.push_back(net.add_pi());
  }
  NodeId acc = xs[0];
  for (int i = 1; i < 9; ++i) {
    acc = net.add_and(acc, xs[i]);  // depth 8 left fold
  }
  net.add_po(acc);
  const Network golden = net.cleanup();
  ASSERT_EQ(net.depth(), 8u);

  BalancingPass pass{CostModel{}, OptParams{}};
  EXPECT_EQ(pass.run(net), 1u);
  net = net.cleanup();
  EXPECT_LE(net.depth(), 3u);  // ternary tree over 9 operands: ceil(log3) = 2
  EXPECT_EQ(check_equivalence(net, golden).result, EquivalenceResult::Equivalent);
}

TEST(Balancing, XorParityCancellation) {
  // x ^ o ^ o ^ o ^ o collapses to x ^ 0 = x.
  Network net;
  const NodeId x = net.add_pi();
  const NodeId o = net.add_pi();
  NodeId acc = x;
  for (int i = 0; i < 4; ++i) {
    acc = net.add_xor(acc, o);
  }
  net.add_po(acc);
  const Network golden = net.cleanup();
  BalancingPass pass{CostModel{}, OptParams{}};
  EXPECT_EQ(pass.run(net), 1u);
  net = net.cleanup();
  EXPECT_EQ(net.num_gates(), 0u);  // the PO is the PI itself
  EXPECT_EQ(check_equivalence(net, golden).result, EquivalenceResult::Equivalent);
}

TEST(Balancing, ComplementPairFoldsAndChainToConst) {
  Network net;
  const NodeId a = net.add_pi();
  const NodeId b = net.add_pi();
  const NodeId c = net.add_pi();
  const NodeId na = net.add_not(a);
  net.add_po(net.add_and(net.add_and(a, b), net.add_and(na, c)));
  const Network golden = net.cleanup();
  BalancingPass pass{CostModel{}, OptParams{}};
  EXPECT_EQ(pass.run(net), 1u);
  net = net.cleanup();
  EXPECT_EQ(net.num_gates(), 0u);  // a & !a & ... = 0
  EXPECT_EQ(check_equivalence(net, golden).result, EquivalenceResult::Equivalent);
}

TEST(Balancing, InverterRecreatedAfterEarlierCommit) {
  // Regression: an Or-chain commit rewires the chain's consumers via
  // substitute(), leaving the strash bucket of a downstream inverter keyed by
  // the stale fanin; when a later And-chain keeps that operand complemented,
  // add_not() creates a fresh node — its level/cost must be accounted, not
  // read out of bounds.
  Network net;
  std::vector<NodeId> p;
  for (int i = 0; i < 6; ++i) {
    p.push_back(net.add_pi());
  }
  const NodeId orc = net.add_or(net.add_or(net.add_or(p[0], p[1]), p[2]), p[3]);
  const NodeId inv = net.add_not(orc);
  net.add_po(net.add_and(net.add_and(net.add_and(inv, p[4]), p[5]), inv));
  const Network golden = net.cleanup();

  BalancingPass pass{CostModel{}, OptParams{}};
  pass.run(net);
  net = net.cleanup();
  EXPECT_EQ(check_equivalence(net, golden).result, EquivalenceResult::Equivalent);
  EXPECT_LE(net.depth(), golden.depth());
}

TEST(Balancing, PrefersTernaryCellsForArea) {
  // Four equal-arrival operands: both shapes reach depth 2, but
  // and3(and2(a,b),c,d) is 24 JJ against 30 JJ for three and2.
  Network net;
  const NodeId a = net.add_pi();
  const NodeId b = net.add_pi();
  const NodeId c = net.add_pi();
  const NodeId d = net.add_pi();
  net.add_po(net.add_and(net.add_and(net.add_and(a, b), c), d));
  BalancingPass pass{CostModel{}, OptParams{}};
  EXPECT_EQ(pass.run(net), 1u);
  net = net.cleanup();
  EXPECT_EQ(net.count_of(GateType::And3), 1u);
  EXPECT_EQ(net.count_of(GateType::And2), 1u);
}

// ---------------------------------------------------------------------------
// Resubstitution
// ---------------------------------------------------------------------------

TEST(Resubstitution, MergesStructurallyDifferentEquivalents) {
  // h1 = (a^b)^c and h2 = a^(b^c) are the same function but strash cannot see
  // it; resubstitution must reroute h2's fanout to h1.
  Network net;
  const NodeId a = net.add_pi();
  const NodeId b = net.add_pi();
  const NodeId c = net.add_pi();
  const NodeId h1 = net.add_xor(net.add_xor(a, b), c);
  const NodeId h2 = net.add_xor(a, net.add_xor(b, c));
  net.add_po(net.add_and(h1, net.add_not(h2)));
  const Network golden = net.cleanup();
  const std::size_t gates_before = net.num_gates();

  ResubstitutionPass pass{CostModel{}, OptParams{}};
  EXPECT_GT(pass.run(net), 0u);
  net = net.cleanup();
  EXPECT_LT(net.num_gates(), gates_before);
  EXPECT_EQ(check_equivalence(net, golden).result, EquivalenceResult::Equivalent);
}

TEST(Resubstitution, UsesAnInverterForComplementedMatches) {
  // g = nand(a,b) elsewhere recomputed as or(!a,!b): one inverter from the
  // existing nand beats recomputing the whole complement cone.
  Network net;
  const NodeId a = net.add_pi();
  const NodeId b = net.add_pi();
  const NodeId f = net.add_and(a, b);
  const NodeId g = net.add_or(net.add_not(a), net.add_not(b));  // = !(a&b)
  net.add_po(f);
  net.add_po(net.add_xor(g, b));
  const Network golden = net.cleanup();

  ResubstitutionPass pass{CostModel{}, OptParams{}};
  EXPECT_GT(pass.run(net), 0u);
  net = net.cleanup();
  EXPECT_EQ(check_equivalence(net, golden).result, EquivalenceResult::Equivalent);
  // The or/not-cone is gone; a single inverter taps the and gate.
  EXPECT_EQ(net.count_of(GateType::Or2), 0u);
}

TEST(Resubstitution, InverterCreatedByEarlierCommitMayDieLater) {
  // Regression: a complemented resubstitution creates a fresh inverter whose
  // id lies beyond the pass's original node span; a later commit whose MFFC
  // swallows that inverter must not write out of bounds in the liveness
  // bookkeeping. Here g = or(!a,!b) resubstitutes to Not(and(a,b)) (new
  // inverter X), then c = xor(g,b) resubstitutes to or(a,!b), killing X.
  Network net;
  const NodeId a = net.add_pi();
  const NodeId b = net.add_pi();
  const NodeId d = net.add_and(a, b);
  const NodeId e = net.add_or(a, net.add_not(b));
  const NodeId g = net.add_or(net.add_not(a), net.add_not(b));
  net.add_po(d);
  net.add_po(e);
  net.add_po(net.add_xor(g, b));
  const Network golden = net.cleanup();

  ResubstitutionPass pass{CostModel{}, OptParams{}};
  EXPECT_GT(pass.run(net), 0u);
  net = net.cleanup();
  EXPECT_EQ(check_equivalence(net, golden).result, EquivalenceResult::Equivalent);
}

TEST(Resubstitution, FindsConstantNodes) {
  Network net;
  const NodeId a = net.add_pi();
  const NodeId b = net.add_pi();
  const NodeId zero = net.get_const0();  // donors must precede their targets
  // (a & b) & (a ^ b) == 0, built so folding cannot see it.
  const NodeId f = net.add_and(net.add_and(a, b), net.add_xor(a, b));
  net.add_po(f);
  net.add_po(zero);
  const Network golden = net.cleanup();
  ResubstitutionPass pass{CostModel{}, OptParams{}};
  EXPECT_GT(pass.run(net), 0u);
  net = net.cleanup();
  EXPECT_EQ(net.num_gates(), 0u);
  EXPECT_EQ(check_equivalence(net, golden).result, EquivalenceResult::Equivalent);
}

// ---------------------------------------------------------------------------
// PassManager / optimize()
// ---------------------------------------------------------------------------

TEST(PassManager, StandardPipelineRecordsStats) {
  Network net = small_adder(8);
  const Network golden = net.cleanup();
  OptParams params;
  PassManager manager = PassManager::standard(CostModel{}, params);
  EXPECT_EQ(manager.num_passes(), 3u);
  const OptSummary s = manager.run(net);

  EXPECT_GT(s.total_applied, 0u);
  EXPECT_LT(s.gates_after, s.gates_before);
  EXPECT_LE(s.depth_after, s.depth_before);
  EXPECT_LE(s.plan_dffs_after, s.plan_dffs_before);
  ASSERT_FALSE(s.passes.empty());
  for (const PassStats& ps : s.passes) {
    EXPECT_GE(ps.gates_before, ps.gates_after);  // passes never add gates
    EXPECT_GE(ps.depth_before, ps.depth_after);  // nor depth
    if (ps.applied > 0) {
      EXPECT_EQ(ps.verdict, PassVerdict::Proved);  // small nets: full SAT proof
    }
  }
  EXPECT_EQ(check_equivalence(net, golden).result, EquivalenceResult::Equivalent);
}

TEST(PassManager, DisabledIsANoop) {
  Network net = small_adder(4);
  const std::size_t gates = net.num_gates();
  OptParams params;
  params.enable = false;
  const OptSummary s = optimize(net, CostModel{}, params);
  EXPECT_EQ(s.total_applied, 0u);
  EXPECT_EQ(net.num_gates(), gates);
  const int64_t plan_dffs = CostModel{}.measure_network(net).plan_dffs;
  EXPECT_GT(plan_dffs, 0);
  EXPECT_EQ(s.plan_dffs_before, plan_dffs);
  EXPECT_EQ(s.plan_dffs_after, plan_dffs);
}

TEST(PassManager, PerPassTogglesAreHonored) {
  OptParams params;
  params.balancing = false;
  params.resubstitution = false;
  PassManager manager = PassManager::standard(CostModel{}, params);
  EXPECT_EQ(manager.num_passes(), 1u);
}

// ---------------------------------------------------------------------------
// Flow integration
// ---------------------------------------------------------------------------

TEST(OptFlow, AdderFlowDominatesSeedFlow) {
  const Network net = small_adder(12);
  FlowParams off;
  off.opt.enable = false;
  FlowParams on;
  const FlowResult base = run_flow(net, off);
  const FlowResult optd = run_flow(net, on);

  EXPECT_LT(optd.metrics.opt_gates, optd.metrics.pre_opt_gates);
  EXPECT_LE(optd.metrics.num_dffs, base.metrics.num_dffs);
  EXPECT_LE(optd.metrics.depth_cycles, base.metrics.depth_cycles);
  EXPECT_LE(optd.metrics.area_jj, base.metrics.area_jj);
  EXPECT_GT(optd.metrics.opt_applied, 0u);
  EXPECT_TRUE(verify_flow(optd, net, MultiphaseConfig{4}));
}

TEST(OptFlow, MetricsSurfaceInTheReport) {
  const Network net = small_adder(4);
  TableRow row;
  row.name = net.name();
  FlowParams p;
  p.use_t1 = false;
  row.single_phase = run_flow(net, p).metrics;
  row.multi_phase = run_flow(net, p).metrics;
  p.use_t1 = true;
  row.t1 = run_flow(net, p).metrics;

  const TableSummary s = summarize({row});
  EXPECT_GT(s.opt_gate_ratio, 0.0);
  EXPECT_LT(s.opt_gate_ratio, 1.0);  // the optimizer shrank the adder

  std::ostringstream os;
  print_table(os, {row}, 4);
  EXPECT_NE(os.str().find("G.opt"), std::string::npos);
}

}  // namespace
}  // namespace t1sfq
