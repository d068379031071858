#include "verify/physics_check.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <initializer_list>
#include <random>
#include <sstream>
#include <stdexcept>

#include "network/simulation.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sfq/jj_sim.hpp"
#include "sfq/pulse_sim.hpp"

namespace t1sfq {
namespace verify {
namespace {

struct Vector {
  std::vector<bool> pis;
  bool hazard = false;
};

/// PIs in the transitive fanin cone of \p root, as indices into the PI list.
/// Iterative DFS: flow outputs can be thousands of levels deep. A node is
/// visited by this walk iff `seen[id] == epoch`, so one buffer serves every
/// walk given a fresh epoch.
void collect_pi_support(const Network& net, NodeId root,
                        const std::vector<int>& pi_index, std::vector<uint32_t>& seen,
                        uint32_t epoch, std::vector<std::size_t>& out) {
  std::vector<NodeId> stack{root};
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    if (seen[id] == epoch) {
      continue;
    }
    seen[id] = epoch;
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

/// Hazard-lab-style glitch vectors: for each sampled T1 body, raise every PI
/// feeding all three (and each pair of) data inputs, so their pulses are all
/// present in one wave — the overlap scenario eq. 5's distinct landing slots
/// must absorb. T1 bodies are sampled in \p order, the program's order.
void make_hazard_vectors(const Network& net, const std::vector<NodeId>& order,
                         const PhysicsCheckParams& params, std::vector<Vector>& out) {
  std::vector<int> pi_index(net.size(), -1);
  for (std::size_t i = 0; i < net.num_pis(); ++i) {
    pi_index[net.pi(i)] = static_cast<int>(i);
  }
  std::vector<uint32_t> seen(net.size(), 0);
  uint32_t epoch = 0;
  unsigned sampled = 0;
  for (const NodeId id : order) {
    if (net.node(id).type != GateType::T1) {
      continue;
    }
    if (sampled++ >= params.max_hazard_t1) {
      break;
    }
    std::array<std::vector<std::size_t>, 3> support;
    for (unsigned i = 0; i < 3; ++i) {
      collect_pi_support(net, net.node(id).fanin(i), pi_index, seen, ++epoch, support[i]);
    }
    const auto push = [&](std::initializer_list<unsigned> inputs) {
      Vector v;
      v.pis.assign(net.num_pis(), false);
      v.hazard = true;
      for (const unsigned i : inputs) {
        for (const std::size_t pi : support[i]) {
          v.pis[pi] = true;
        }
      }
      out.push_back(std::move(v));
    };
    push({0, 1, 2});
    push({0, 1});
    push({0, 2});
    push({1, 2});
  }
}

void make_vectors(const Network& net, const std::vector<NodeId>& order,
                  const PhysicsCheckParams& params, std::vector<Vector>& out) {
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
    for (std::size_t i = 0; i < std::min<std::size_t>(pis, params.max_walking_ones);
         ++i) {
      std::vector<bool> one(pis, false);
      one[i] = true;
      push(one);
    }
  }
  if (params.hazard_vectors) {
    make_hazard_vectors(net, order, params, out);
  }
  std::mt19937_64 rng(params.seed);
  for (unsigned r = 0; r < params.random_vectors; ++r) {
    std::vector<bool> v(pis);
    for (std::size_t i = 0; i < pis; ++i) {
      v[i] = (rng() & 1) != 0;
    }
    push(v);
  }
}

/// Analog premise 1: a JTL propagates exactly one SFQ pulse per stage, in
/// causal order — the physical basis of the "Buf inherits its source's
/// release stage" lowering rule.
bool probe_jtl() {
  jj::Jtl jtl = jj::make_jtl(4);
  jtl.circuit.add_pulse(jtl.input_node, 10e-12, 1.6e-4, 2e-12);
  jj::TransientParams p;
  p.t_end = 60e-12;
  p.dt = 0.05e-12;
  const auto res = jj::simulate(jtl.circuit, p);
  if (!res.converged) {
    return false;
  }
  double last = 0.0;
  for (const int j : jtl.stage_junctions) {
    if (res.pulse_count(static_cast<std::size_t>(j)) != 1) {
      return false;
    }
    const double t = res.jj_pulses[static_cast<std::size_t>(j)].front();
    if (t < last) {
      return false;
    }
    last = t;
  }
  return true;
}

/// Analog premise 2: a bistable storage loop retains one flux quantum after a
/// write pulse — the storage principle behind the T1 state machine (Fig. 1a)
/// that T1StateMachine abstracts.
bool probe_storage_loop() {
  jj::Circuit c;
  const int in = c.add_node();
  const int mid = c.add_node();
  jj::JjParams jp;
  const int jwrite = c.add_jj(in, 0, jp);
  c.add_inductor(in, mid, 20e-12);  // beta_L ~ 6: strongly bistable
  const int jhold = c.add_jj(mid, 0, jp);
  c.add_dc_bias(in, 0.3 * jp.ic);
  c.add_pulse(in, 15e-12, 1.5 * jp.ic, 2e-12);
  jj::TransientParams p;
  p.t_end = 80e-12;
  p.dt = 0.02e-12;
  const auto res = jj::simulate(c, p);
  if (!res.converged || res.pulse_count(static_cast<std::size_t>(jhold)) != 0) {
    return false;
  }
  const double diff = std::fabs(res.jj_phase[static_cast<std::size_t>(jwrite)].back() -
                                res.jj_phase[static_cast<std::size_t>(jhold)].back());
  return diff > jj::kPi;  // a quantum sits in the loop
}

}  // namespace

std::string PhysicsReport::summary() const {
  std::ostringstream os;
  if (!ran) {
    return "physics check: not run";
  }
  os << "physics check: " << (ok ? "PASS" : "FAIL") << " (" << vectors << " vectors, "
     << hazard_cases << " hazard, " << checked_edges << " edges, min margin "
     << min_margin << ")";
  if (timing_violations > 0) {
    os << "; " << timing_violations << " timing violation(s)";
    if (!first_violation.empty()) {
      os << " [" << first_violation << "]";
    }
  }
  if (function_mismatches > 0) {
    os << "; " << function_mismatches << " function mismatch(es)";
  }
  if (device_probe_ran && !device_probe_ok) {
    os << "; device probe FAILED";
  }
  if (has_witness) {
    os << "; witness (" << witness_kind << "): ";
    for (const bool b : witness) {
      os << (b ? '1' : '0');
    }
  }
  return os.str();
}

PhysicsReport physics_check(const PhysicalNetlist& phys, const MultiphaseConfig& clk,
                            const Network& golden, const PhysicsCheckParams& params) {
  const Network& net = phys.net;
  if (net.num_pis() != golden.num_pis() || net.num_pos() != golden.num_pos()) {
    throw std::invalid_argument("physics_check: PI/PO counts differ from golden");
  }
  if (phys.stage.size() < net.size()) {
    throw std::invalid_argument("physics_check: stage vector smaller than network");
  }
  obs::Span span("verify.physics_check", "nodes",
                 static_cast<int64_t>(net.size()));

  PhysicsReport report;
  report.ran = true;

  // (1) Compile once: timing legality and phase margins are data-independent
  // (a release stage depends only on the schedule, not on whether the pulse
  // is present), so the program checks every window a single time.
  const PulseProgram program(net, phys.stage, clk);
  report.margin_histogram = program.margin_histogram();
  report.min_margin = program.min_margin();
  report.checked_edges = program.checked_edges();
  report.timing_violations = program.violations().size();

  std::vector<Vector> vectors;
  make_vectors(net, program.order(), params, vectors);
  if (!program.ok()) {
    // Any wave witnesses a timing violation: the first vector driven, or the
    // all-zero vector when none is.
    report.first_violation = program.violations().front().describe();
    report.has_witness = true;
    report.witness =
        vectors.empty() ? std::vector<bool>(net.num_pis(), false) : vectors.front().pis;
    report.witness_kind = "timing";
  }

  // (2) Pulse-level waves vs word-parallel golden simulation, 64 at a time.
  const std::vector<NodeId> golden_order = golden.topo_order();
  std::vector<uint64_t> pi_words(net.num_pis());
  for (std::size_t base = 0; base < vectors.size(); base += 64) {
    const std::size_t width = std::min<std::size_t>(64, vectors.size() - base);
    std::fill(pi_words.begin(), pi_words.end(), 0);
    for (std::size_t k = 0; k < width; ++k) {
      const Vector& vec = vectors[base + k];
      for (std::size_t i = 0; i < net.num_pis(); ++i) {
        if (vec.pis[i]) {
          pi_words[i] |= uint64_t{1} << k;
        }
      }
      if (vec.hazard) {
        ++report.hazard_cases;
      }
    }
    const std::vector<uint64_t> expect = simulate_words(golden, pi_words, golden_order);
    const std::vector<uint64_t> pulse = program.run(pi_words);
    uint64_t failing = 0;  // lanes whose PO pattern differs from the golden
    for (std::size_t po = 0; po < golden.num_pos(); ++po) {
      failing |= expect[po] ^ pulse[po];
    }
    if (width < 64) {
      failing &= (uint64_t{1} << width) - 1;
    }
    report.vectors += width;
    report.function_mismatches += static_cast<std::size_t>(std::popcount(failing));
    if (failing != 0 && !report.has_witness) {
      const Vector& vec = vectors[base + static_cast<std::size_t>(std::countr_zero(failing))];
      report.has_witness = true;
      report.witness = vec.pis;
      report.witness_kind = vec.hazard ? "hazard" : "function";
    }
  }

  // (3) Optional analog cross-check of the pulse model's premises.
  if (params.device_probe) {
    report.device_probe_ran = true;
    report.device_probe_ok = probe_jtl() && probe_storage_loop();
  }

  report.ok = report.timing_violations == 0 && report.function_mismatches == 0 &&
              (!report.device_probe_ran || report.device_probe_ok);

  obs::count("verify.physics_checks");
  obs::count("verify.physics_failures", report.ok ? 0 : 1);
  obs::count("verify.physics_vectors", report.vectors);
  obs::gauge_set("verify.min_margin_stages", report.min_margin);
  // The log2-bucket histogram machinery is unit-agnostic; margins are small
  // integers (stages), so buckets are exact up to margin 2 and 2x after.
  for (std::size_t m = 0; m < report.margin_histogram.size(); ++m) {
    obs::observe_us("verify.phase_margin_stages", m, report.margin_histogram[m]);
  }
  span.arg("vectors", static_cast<int64_t>(report.vectors));
  span.arg("ok", report.ok ? 1 : 0);
  return report;
}

}  // namespace verify
}  // namespace t1sfq
