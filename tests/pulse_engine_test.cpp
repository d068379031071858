/// Tests pinning the compiled pulse engine (`PulseProgram` in
/// sfq/pulse_sim.hpp, 64 waves per word, windows checked once) and the
/// physics oracle built on it to the wave-at-a-time simulator they replaced,
/// kept here as a test-only reference: the same violation list, the same PO
/// pulses on every vector, and the same `PhysicsReport`, on flow outputs and
/// on mutants that break each thing the oracle checks.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <initializer_list>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>

#include "benchmarks/suite.hpp"
#include "core/flow.hpp"
#include "network/simulation.hpp"
#include "random_network_test_util.hpp"
#include "sfq/pulse_sim.hpp"
#include "verify/physics_check.hpp"

namespace t1sfq {
namespace {

using testutil::random_network;

// ---------------------------------------------------------------------------
// Test-only reference: one wave per call, every window re-checked per wave,
// the T1 body driven through T1StateMachine in arrival order.
// ---------------------------------------------------------------------------

PulseSimResult reference_pulse_simulate(const Network& net, const std::vector<Stage>& stage,
                                        const MultiphaseConfig& clk,
                                        const std::vector<bool>& pi_values) {
  PulseSimResult result;
  const Stage n = static_cast<Stage>(clk.phases);
  std::vector<uint8_t> value(net.size(), 0);
  std::vector<Stage> release(net.size(), 0);
  for (std::size_t i = 0; i < net.num_pis(); ++i) {
    value[net.pi(i)] = pi_values[i] ? 1 : 0;
  }
  for (const NodeId id : net.topo_order()) {
    const Node& node = net.node(id);
    switch (node.type) {
      case GateType::Pi:
        release[id] = stage[id];
        break;
      case GateType::Const0:
        value[id] = 0;
        release[id] = stage[id];
        break;
      case GateType::Const1:
        value[id] = 1;
        release[id] = stage[id];
        break;
      case GateType::Buf:
        value[id] = value[node.fanin(0)];
        release[id] = release[node.fanin(0)];
        break;
      case GateType::T1Port: {
        const Node& body = net.node(node.fanin(0));
        unsigned pulses = 0;
        for (unsigned i = 0; i < 3; ++i) {
          pulses += value[body.fanin(i)];
        }
        bool v = false;
        switch (node.port) {
          case T1PortFn::Sum: v = pulses & 1; break;
          case T1PortFn::Carry: v = pulses >= 2; break;
          case T1PortFn::Or: v = pulses >= 1; break;
          case T1PortFn::CarryN: v = pulses < 2; break;
          case T1PortFn::OrN: v = pulses == 0; break;
        }
        value[id] = v ? 1 : 0;
        release[id] = release[node.fanin(0)];
        break;
      }
      case GateType::T1: {
        const Stage sigma = stage[id];
        std::array<std::pair<Stage, bool>, 3> arrivals;
        for (unsigned i = 0; i < 3; ++i) {
          const NodeId f = node.fanin(i);
          arrivals[i] = {release[f], value[f] != 0};
          if (release[f] >= sigma || sigma - release[f] >= n) {
            result.violations.push_back(
                {ViolationKind::T1InputOutsideCycle, id, f, release[f], sigma});
          }
        }
        for (unsigned i = 0; i < 3; ++i) {
          for (unsigned j = i + 1; j < 3; ++j) {
            if (arrivals[i].first == arrivals[j].first) {
              result.violations.push_back({ViolationKind::T1InputCollision, id,
                                           node.fanin(j), arrivals[j].first, sigma});
            }
          }
        }
        std::sort(arrivals.begin(), arrivals.end());
        T1StateMachine fsm;
        for (const auto& [t, pulse] : arrivals) {
          if (pulse) {
            fsm.on_t();
          }
        }
        value[id] = fsm.on_r() ? 1 : 0;
        release[id] = sigma;
        break;
      }
      default: {
        const Stage sigma = stage[id];
        for (uint8_t i = 0; i < node.num_fanins; ++i) {
          const NodeId f = node.fanin(i);
          const GateType ft = net.node(f).type;
          if (ft == GateType::Const0 || ft == GateType::Const1) {
            continue;
          }
          if (release[f] >= sigma) {
            result.violations.push_back(
                {ViolationKind::NonPositiveGap, id, f, release[f], sigma});
          } else if (sigma - release[f] > n) {
            result.violations.push_back(
                {ViolationKind::GapExceedsWindow, id, f, release[f], sigma});
          }
        }
        const uint64_t a = node.num_fanins > 0 ? value[node.fanin(0)] : 0;
        const uint64_t b = node.num_fanins > 1 ? value[node.fanin(1)] : 0;
        const uint64_t c = node.num_fanins > 2 ? value[node.fanin(2)] : 0;
        value[id] = Network::eval_word(node.type, node.port, a, b, c) & 1;
        release[id] = sigma;
      }
    }
  }
  for (const NodeId po : net.pos()) {
    result.po_values.push_back(value[po] != 0);
  }
  return result;
}

/// Phase margins from a separate scan over `release_stages`.
struct ReferenceMargins {
  std::vector<uint64_t> histogram;
  int64_t min_margin = 0;
  std::size_t edges = 0;

  void record(int64_t margin) {
    const auto bucket = std::min<std::size_t>(static_cast<std::size_t>(margin),
                                              histogram.size() - 1);
    ++histogram[bucket];
    min_margin = edges == 0 ? margin : std::min(min_margin, margin);
    ++edges;
  }
};

ReferenceMargins reference_margins(const Network& net, const std::vector<Stage>& stage,
                                   const MultiphaseConfig& clk) {
  const std::vector<Stage> release = release_stages(net, stage);
  const Stage n = static_cast<Stage>(clk.phases);
  ReferenceMargins scan;
  scan.histogram.assign(std::max(clk.phases, 1u), 0);
  for (const NodeId id : net.topo_order()) {
    const Node& node = net.node(id);
    if (node.type == GateType::T1) {
      const Stage sigma = stage[id];
      for (unsigned i = 0; i < 3; ++i) {
        const Stage a = release[node.fanin(i)];
        if (a > sigma - n && a < sigma) {
          scan.record(std::min(a - (sigma - n) - 1, sigma - a - 1));
        }
      }
    } else if (is_clocked(node.type)) {
      for (uint8_t i = 0; i < node.num_fanins; ++i) {
        const NodeId f = node.fanin(i);
        const GateType ft = net.node(f).type;
        if (ft == GateType::Const0 || ft == GateType::Const1) {
          continue;
        }
        const Stage gap = stage[id] - release[f];
        if (gap > 0 && gap <= n) {
          scan.record(std::min(gap - 1, n - gap));
        }
      }
    }
  }
  return scan;
}

struct ReferenceVector {
  std::vector<bool> pis;
  bool hazard = false;
};

void reference_pi_support(const Network& net, NodeId root, const std::vector<int>& pi_index,
                          std::vector<std::size_t>& out) {
  std::vector<char> seen(net.size(), 0);
  std::vector<NodeId> stack{root};
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    if (seen[id]) {
      continue;
    }
    seen[id] = 1;
    const Node& node = net.node(id);
    if (node.type == GateType::Pi) {
      out.push_back(static_cast<std::size_t>(pi_index[id]));
      continue;
    }
    for (uint8_t i = 0; i < node.num_fanins; ++i) {
      stack.push_back(node.fanin(i));
    }
  }
}

/// The oracle's vector set as `PhysicsCheckParams` documents it, with a fresh
/// visited buffer per support walk.
std::vector<ReferenceVector> reference_vectors(const Network& net,
                                               const verify::PhysicsCheckParams& params) {
  std::vector<ReferenceVector> out;
  const std::size_t pis = net.num_pis();
  const auto push = [&](const std::vector<bool>& v) { out.push_back({v, false}); };
  if (params.directed_vectors) {
    push(std::vector<bool>(pis, false));
    push(std::vector<bool>(pis, true));
    std::vector<bool> alt(pis);
    for (std::size_t i = 0; i < pis; ++i) {
      alt[i] = (i & 1) != 0;
    }
    push(alt);
    for (std::size_t i = 0; i < std::min<std::size_t>(pis, params.max_walking_ones); ++i) {
      std::vector<bool> one(pis, false);
      one[i] = true;
      push(one);
    }
  }
  if (params.hazard_vectors) {
    std::vector<int> pi_index(net.size(), -1);
    for (std::size_t i = 0; i < pis; ++i) {
      pi_index[net.pi(i)] = static_cast<int>(i);
    }
    unsigned sampled = 0;
    for (const NodeId id : net.topo_order()) {
      if (net.node(id).type != GateType::T1) {
        continue;
      }
      if (sampled++ >= params.max_hazard_t1) {
        break;
      }
      std::array<std::vector<std::size_t>, 3> support;
      for (unsigned i = 0; i < 3; ++i) {
        reference_pi_support(net, net.node(id).fanin(i), pi_index, support[i]);
      }
      for (const auto inputs : {std::initializer_list<unsigned>{0, 1, 2}, {0, 1}, {0, 2}, {1, 2}}) {
        ReferenceVector v{std::vector<bool>(pis, false), true};
        for (const unsigned i : inputs) {
          for (const std::size_t pi : support[i]) {
            v.pis[pi] = true;
          }
        }
        out.push_back(std::move(v));
      }
    }
  }
  std::mt19937_64 rng(params.seed);
  for (unsigned r = 0; r < params.random_vectors; ++r) {
    std::vector<bool> v(pis);
    for (std::size_t i = 0; i < pis; ++i) {
      v[i] = (rng() & 1) != 0;
    }
    push(v);
  }
  return out;
}

/// The oracle's report assembled from the reference: timing from the first
/// wave (the all-zero one when none is driven), function wave by wave.
verify::PhysicsReport reference_physics_check(const PhysicalNetlist& phys,
                                              const MultiphaseConfig& clk,
                                              const Network& golden,
                                              const verify::PhysicsCheckParams& params) {
  const Network& net = phys.net;
  verify::PhysicsReport report;
  report.ran = true;
  const ReferenceMargins margins = reference_margins(net, phys.stage, clk);
  report.margin_histogram = margins.histogram;
  report.min_margin = margins.min_margin;
  report.checked_edges = margins.edges;

  const auto vectors = reference_vectors(net, params);
  const std::vector<bool> first =
      vectors.empty() ? std::vector<bool>(net.num_pis(), false) : vectors.front().pis;
  const PulseSimResult timing = reference_pulse_simulate(net, phys.stage, clk, first);
  report.timing_violations = timing.violations.size();
  if (!timing.violations.empty()) {
    report.first_violation = timing.violations.front().describe();
    report.has_witness = true;
    report.witness = first;
    report.witness_kind = "timing";
  }
  for (const ReferenceVector& vec : vectors) {
    ++report.vectors;
    if (vec.hazard) {
      ++report.hazard_cases;
    }
    if (reference_pulse_simulate(net, phys.stage, clk, vec.pis).po_values !=
        simulate(golden, vec.pis)) {
      ++report.function_mismatches;
      if (!report.has_witness) {
        report.has_witness = true;
        report.witness = vec.pis;
        report.witness_kind = vec.hazard ? "hazard" : "function";
      }
    }
  }
  report.ok = report.timing_violations == 0 && report.function_mismatches == 0;
  return report;
}

// ---------------------------------------------------------------------------
// Comparisons.
// ---------------------------------------------------------------------------

void expect_same_violations(const std::vector<TimingViolation>& got,
                            const std::vector<TimingViolation>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].kind, want[i].kind) << i;
    EXPECT_EQ(got[i].node, want[i].node) << i;
    EXPECT_EQ(got[i].fanin, want[i].fanin) << i;
    EXPECT_EQ(got[i].producer, want[i].producer) << i;
    EXPECT_EQ(got[i].consumer, want[i].consumer) << i;
  }
}

void expect_same_report(const verify::PhysicsReport& got, const verify::PhysicsReport& want) {
  EXPECT_EQ(got.ran, want.ran);
  EXPECT_EQ(got.ok, want.ok);
  EXPECT_EQ(got.vectors, want.vectors);
  EXPECT_EQ(got.hazard_cases, want.hazard_cases);
  EXPECT_EQ(got.timing_violations, want.timing_violations);
  EXPECT_EQ(got.function_mismatches, want.function_mismatches);
  EXPECT_EQ(got.margin_histogram, want.margin_histogram);
  EXPECT_EQ(got.min_margin, want.min_margin);
  EXPECT_EQ(got.checked_edges, want.checked_edges);
  EXPECT_EQ(got.has_witness, want.has_witness);
  EXPECT_EQ(got.witness, want.witness);
  EXPECT_EQ(got.witness_kind, want.witness_kind);
  EXPECT_EQ(got.first_violation, want.first_violation);
  EXPECT_EQ(got.device_probe_ran, want.device_probe_ran);
  EXPECT_EQ(got.device_probe_ok, want.device_probe_ok);
  EXPECT_EQ(got.summary(), want.summary());
}

/// The program's violations and every vector's PO pulses (64 per word, and
/// through the one-lane `pulse_simulate` on the first few) equal the
/// reference's, and so does the whole oracle report, against \p golden and
/// against a wrong one.
void expect_engine_matches_reference(const PhysicalNetlist& phys, const MultiphaseConfig& clk,
                                     const Network& golden,
                                     const verify::PhysicsCheckParams& params) {
  const Network& net = phys.net;
  const PulseProgram program(net, phys.stage, clk);
  const auto vectors = reference_vectors(net, params);
  ASSERT_FALSE(vectors.empty());
  expect_same_violations(program.violations(),
                         reference_pulse_simulate(net, phys.stage, clk, vectors.front().pis)
                             .violations);

  std::vector<uint64_t> words(net.num_pis());
  for (std::size_t base = 0; base < vectors.size(); base += 64) {
    const std::size_t width = std::min<std::size_t>(64, vectors.size() - base);
    std::fill(words.begin(), words.end(), 0);
    for (std::size_t k = 0; k < width; ++k) {
      for (std::size_t i = 0; i < net.num_pis(); ++i) {
        words[i] |= (vectors[base + k].pis[i] ? uint64_t{1} : 0) << k;
      }
    }
    const std::vector<uint64_t> got = program.run(words);
    ASSERT_EQ(got.size(), net.num_pos());
    for (std::size_t k = 0; k < width; ++k) {
      const auto& pis = vectors[base + k].pis;
      const PulseSimResult ref = reference_pulse_simulate(net, phys.stage, clk, pis);
      std::vector<bool> lane(net.num_pos());
      for (std::size_t po = 0; po < net.num_pos(); ++po) {
        lane[po] = ((got[po] >> k) & 1) != 0;
      }
      EXPECT_EQ(lane, ref.po_values) << "vector " << base + k;
      if (base + k < 4) {
        const PulseSimResult one = pulse_simulate(net, phys.stage, clk, pis);
        EXPECT_EQ(one.po_values, ref.po_values) << "vector " << base + k;
        expect_same_violations(one.violations, ref.violations);
      }
    }
  }
  expect_same_report(verify::physics_check(phys, clk, golden, params),
                     reference_physics_check(phys, clk, golden, params));
  // Against a golden with PO 0 tied to 0, exactly the vectors that pulse PO 0
  // fail: the mismatch count and the witness (the first of them) depend on
  // every generated vector, hazard vectors included.
  Network tied = golden;
  tied.set_po(0, tied.get_const0());
  expect_same_report(verify::physics_check(phys, clk, tied, params),
                     reference_physics_check(phys, clk, tied, params));
}

// ---------------------------------------------------------------------------
// Mutants of a legal flow output, each breaking one thing the oracle checks.
// ---------------------------------------------------------------------------

bool carries_pulse(const Network& net, NodeId id) {
  const GateType t = net.node(id).type;
  return t != GateType::Const0 && t != GateType::Const1;
}

/// The first node satisfying \p pred, scanning \p order from its middle on
/// (wrapping), so mutations land deep in the netlist rather than at its PIs.
template <class Pred>
NodeId pick(const std::vector<NodeId>& order, Pred pred) {
  for (std::size_t k = 0; k < order.size(); ++k) {
    const NodeId id = order[(order.size() / 2 + k) % order.size()];
    if (pred(id)) {
      return id;
    }
  }
  return kNullNode;
}

std::vector<std::pair<std::string, PhysicalNetlist>> mutants(const PhysicalNetlist& phys,
                                                             const MultiphaseConfig& clk) {
  const Network& net = phys.net;
  const Stage n = static_cast<Stage>(clk.phases);
  const auto release = release_stages(net, phys.stage);
  const auto order = net.topo_order();
  std::vector<std::pair<std::string, PhysicalNetlist>> out;

  {  // PO 0 inverted behind a legally clocked Not.
    PhysicalNetlist m = phys;
    const NodeId po = m.net.po(0);
    const NodeId inv = m.net.add_raw_gate(GateType::Not, {po});
    m.stage.resize(m.net.size(), 0);
    m.stage[inv] = release[po] + 1;
    m.net.set_po(0, inv);
    out.emplace_back("po-inverted", std::move(m));
  }
  // One clocked node one stage early, from a fanin at gap 1.
  const NodeId early = pick(order, [&](NodeId id) {
    const Node& node = net.node(id);
    if (!is_clocked(node.type)) {
      return false;
    }
    for (uint8_t i = 0; i < node.num_fanins; ++i) {
      if (carries_pulse(net, node.fanin(i)) && phys.stage[id] - release[node.fanin(i)] == 1) {
        return true;
      }
    }
    return false;
  });
  if (early != kNullNode) {
    PhysicalNetlist m = phys;
    m.stage[early] -= 1;
    out.emplace_back("node-early", std::move(m));
  }
  // A clocked T1 input moved onto its next sibling's stage.
  for (const NodeId id : order) {
    const Node& node = net.node(id);
    if (node.type != GateType::T1) {
      continue;
    }
    unsigned moved = 3;
    for (unsigned i = 0; i < 3 && moved == 3; ++i) {
      if (is_clocked(net.node(node.fanin(i)).type)) {
        moved = i;
      }
    }
    if (moved == 3) {
      continue;
    }
    PhysicalNetlist m = phys;
    m.stage[node.fanin(moved)] = release[node.fanin((moved + 1) % 3)];
    out.emplace_back("t1-collision", std::move(m));
    break;
  }
  // One ordinary gap stretched past the window.
  const NodeId stretched = pick(order, [&](NodeId id) {
    const Node& node = net.node(id);
    return is_clocked(node.type) && node.type != GateType::T1 && node.num_fanins > 0 &&
           carries_pulse(net, node.fanin(0));
  });
  if (stretched != kNullNode) {
    PhysicalNetlist m = phys;
    m.stage[stretched] = release[net.node(stretched).fanin(0)] + n + 1;
    out.emplace_back("gap-past-window", std::move(m));
  }
  return out;
}

void expect_flow_and_mutants_match_reference(const Network& net, const FlowParams& p,
                                             const verify::PhysicsCheckParams& params,
                                             const std::string& label) {
  const FlowResult res = run_flow(net, p);
  {
    SCOPED_TRACE(label + " legal");
    expect_engine_matches_reference(res.physical, p.clk, net, params);
    EXPECT_TRUE(verify::physics_check(res.physical, p.clk, net, params).ok);
  }
  const auto muts = mutants(res.physical, p.clk);
  EXPECT_GE(muts.size(), p.use_t1 && res.physical.net.count_of(GateType::T1) > 0 ? 4u : 3u)
      << label;
  for (const auto& [name, m] : muts) {
    SCOPED_TRACE(label + " " + name);
    expect_engine_matches_reference(m, p.clk, net, params);
    EXPECT_FALSE(verify::physics_check(m, p.clk, net, params).ok);
  }
}

// ---------------------------------------------------------------------------
// The T1 word semantics against the state machine.
// ---------------------------------------------------------------------------

TEST(PulseEngine, T1WordMatchesStateMachineInEveryArrivalOrder) {
  // Lane m carries input pattern m (bit i = input i); the three DFFs land at
  // a permutation of stages 1..3 inside the T1's cycle at stage 4.
  const MultiphaseConfig clk{4};
  constexpr std::array<T1PortFn, 5> kPorts{T1PortFn::Sum, T1PortFn::Carry, T1PortFn::Or,
                                           T1PortFn::CarryN, T1PortFn::OrN};
  std::array<Stage, 3> slots{1, 2, 3};
  do {
    Network net;
    std::array<NodeId, 3> dff{};
    for (unsigned i = 0; i < 3; ++i) {
      dff[i] = net.add_dff(net.add_pi());
    }
    const NodeId t1 = net.add_t1(dff[0], dff[1], dff[2]);
    net.add_po(t1);
    for (const T1PortFn fn : kPorts) {
      net.add_po(net.add_t1_port(t1, fn));
    }
    std::vector<Stage> stage(net.size(), 0);
    for (unsigned i = 0; i < 3; ++i) {
      stage[dff[i]] = slots[i];
    }
    stage[t1] = 4;
    const PulseProgram program(net, stage, clk);
    ASSERT_TRUE(program.ok());

    std::vector<uint64_t> words(3, 0);
    for (unsigned m = 0; m < 8; ++m) {
      for (unsigned i = 0; i < 3; ++i) {
        words[i] |= uint64_t{(m >> i) & 1} << m;
      }
    }
    const std::vector<uint64_t> out = program.run(words);
    ASSERT_EQ(out.size(), 1 + kPorts.size());

    std::array<unsigned, 3> arrival{0, 1, 2};  // inputs in stage order
    std::sort(arrival.begin(), arrival.end(),
              [&](unsigned x, unsigned y) { return slots[x] < slots[y]; });
    for (unsigned m = 0; m < 8; ++m) {
      T1StateMachine fsm;
      bool q_fired = false;  // Q*: the loop went 0 -> 1
      bool c_fired = false;  // C*: the loop went 1 -> 0
      for (const unsigned i : arrival) {
        if ((m >> i) & 1) {
          const auto r = fsm.on_t();
          q_fired |= r.q_pulse;
          c_fired |= r.c_pulse;
        }
      }
      const bool s = fsm.on_r();
      const unsigned ones = (m & 1) + ((m >> 1) & 1) + ((m >> 2) & 1);
      const auto lane = [&](std::size_t po) { return ((out[po] >> m) & 1) != 0; };
      const std::string at = "pattern " + std::to_string(m) + " slots " +
                             std::to_string(slots[0]) + std::to_string(slots[1]) +
                             std::to_string(slots[2]);
      EXPECT_EQ(lane(0), s) << at;  // body: the loop read out by R
      EXPECT_EQ(lane(1), s) << at;  // Sum
      EXPECT_EQ(lane(2), c_fired) << at;  // Carry
      EXPECT_EQ(lane(3), q_fired) << at;  // Or
      EXPECT_EQ(lane(4), !c_fired) << at;  // CarryN
      EXPECT_EQ(lane(5), !q_fired) << at;  // OrN
      // The count rule.
      EXPECT_EQ(s, ones % 2 == 1) << at;
      EXPECT_EQ(c_fired, ones >= 2) << at;
      EXPECT_EQ(q_fired, ones >= 1) << at;
    }
    // Lanes past the driven patterns stay quiet on the non-inverted outputs.
    for (std::size_t po = 0; po < 4; ++po) {
      EXPECT_EQ(out[po] >> 8, 0u) << po;
    }
  } while (std::next_permutation(slots.begin(), slots.end()));
}

TEST(PulseEngine, RunRejectsWrongPiWordCount) {
  Network net;
  const NodeId dff = net.add_dff(net.add_pi());
  net.add_po(dff);
  std::vector<Stage> stage(net.size(), 0);
  stage[dff] = 1;
  const PulseProgram program(net, stage, MultiphaseConfig{4});
  EXPECT_THROW(program.run({}), std::invalid_argument);
  EXPECT_THROW(program.run({1, 2}), std::invalid_argument);
  EXPECT_EQ(program.run({0b101}), (std::vector<uint64_t>{0b101}));
  stage.pop_back();
  EXPECT_THROW(PulseProgram(net, stage, MultiphaseConfig{4}), std::invalid_argument);
}

TEST(PulseEngine, ViolationOrderMatchesReference) {
  // One T1 with an input at its own clock stage (outside the cycle) and two
  // colliding ones, and a consumer of its port too far away: the program
  // lists them as the wave-at-a-time simulator did.
  Network net;
  std::array<NodeId, 3> dff{};
  for (unsigned i = 0; i < 3; ++i) {
    dff[i] = net.add_dff(net.add_pi());
  }
  const NodeId t1 = net.add_t1(dff[0], dff[1], dff[2]);
  const NodeId late = net.add_gate(GateType::Not, {net.add_t1_port(t1, T1PortFn::Sum)});
  net.add_po(late);
  std::vector<Stage> stage(net.size(), 0);
  stage[dff[0]] = 4;
  stage[dff[1]] = 2;
  stage[dff[2]] = 2;
  stage[t1] = 4;
  stage[late] = 9;
  const MultiphaseConfig clk{4};
  const PulseProgram program(net, stage, clk);
  const auto ref = reference_pulse_simulate(net, stage, clk, {false, false, false});
  ASSERT_EQ(ref.violations.size(), 3u);
  EXPECT_EQ(ref.violations[0].kind, ViolationKind::T1InputOutsideCycle);
  EXPECT_EQ(ref.violations[1].kind, ViolationKind::T1InputCollision);
  EXPECT_EQ(ref.violations[2].kind, ViolationKind::GapExceedsWindow);
  expect_same_violations(program.violations(), ref.violations);
}

// ---------------------------------------------------------------------------
// Engine vs reference on flow outputs and their mutants.
// ---------------------------------------------------------------------------

struct SuiteConfig {
  bool opt;
  bool use_t1;
};

class EngineOnSuite : public ::testing::TestWithParam<SuiteConfig> {};

TEST_P(EngineOnSuite, MatchesReferenceOnTableIFlowsAndMutants) {
  const auto [opt, use_t1] = GetParam();
  FlowParams p;
  p.opt.enable = opt;
  p.use_t1 = use_t1;
  verify::PhysicsCheckParams params;  // the oracle's default vector set
  params.random_vectors = 64;         // keeps the wave-at-a-time reference quick
  for (const auto& bc : bench::make_suite_scaled(16)) {
    expect_flow_and_mutants_match_reference(bc.generate(), p, params, bc.name);
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, EngineOnSuite,
                         ::testing::Values(SuiteConfig{false, false}, SuiteConfig{false, true},
                                           SuiteConfig{true, false}, SuiteConfig{true, true}));

class EngineOnRandomFlows : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineOnRandomFlows, MatchesReferenceOnFlowsAndMutants) {
  const uint64_t seed = GetParam();
  const Network net = random_network(seed, 6 + static_cast<unsigned>(seed % 7), 400);
  FlowParams p;
  p.use_t1 = seed % 2 == 0;  // T1 flows need n >= 4; the others go down to n = 1
  p.clk.phases = static_cast<unsigned>(p.use_t1 ? 4 + seed % 3 : 1 + seed % 3);
  expect_flow_and_mutants_match_reference(net, p, verify::PhysicsCheckParams{},
                                          "seed " + std::to_string(seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineOnRandomFlows, ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace t1sfq
