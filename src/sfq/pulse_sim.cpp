#include "sfq/pulse_sim.hpp"

#include <algorithm>
#include <random>
#include <sstream>
#include <stdexcept>

#include "network/simulation.hpp"

namespace t1sfq {

T1StateMachine::TResponse T1StateMachine::on_t() {
  TResponse r;
  if (!state_) {
    r.q_pulse = true;  // JQ switches, bias current redirected (state -> 1)
    state_ = true;
  } else {
    r.c_pulse = true;  // JC switches, loop resets (state -> 0)
    state_ = false;
  }
  return r;
}

bool T1StateMachine::on_r() {
  if (state_) {
    state_ = false;  // JS switches: pulse at S
    return true;
  }
  return false;  // JR rejects the pulse
}

const char* to_string(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::NonPositiveGap: return "non-positive stage gap";
    case ViolationKind::GapExceedsWindow: return "gap exceeds clock window";
    case ViolationKind::T1InputCollision: return "T1 input pulse collision";
    case ViolationKind::T1InputOutsideCycle: return "T1 input outside clock cycle";
  }
  return "?";
}

std::string TimingViolation::describe() const {
  std::ostringstream os;
  os << to_string(kind) << ": node " << node << " (stage " << consumer << ") <- node "
     << fanin << " (stage " << producer << ")";
  return os.str();
}

namespace {

/// Buf (JTL) and T1Port entries are passive pins: they inherit their source's
/// release. Every other node releases its pulse at its own stage.
Stage release_of(const Node& node, NodeId id, const std::vector<Stage>& stage,
                 const std::vector<Stage>& release) {
  switch (node.type) {
    case GateType::Buf:
    case GateType::T1Port:
      return release[node.fanin(0)];
    default:
      return stage[id];
  }
}

}  // namespace

std::vector<Stage> release_stages(const Network& net, const std::vector<Stage>& stage) {
  if (stage.size() < net.size()) {
    throw std::invalid_argument("release_stages: stage vector smaller than network");
  }
  std::vector<Stage> release(net.size(), 0);
  for (const NodeId id : net.topo_order()) {
    release[id] = release_of(net.node(id), id, stage, release);
  }
  return release;
}

PulseProgram::PulseProgram(const Network& net, const std::vector<Stage>& stage,
                           const MultiphaseConfig& clk)
    : net_(net), margin_histogram_(std::max(clk.phases, 1u), 0) {
  if (stage.size() < net.size()) {
    throw std::invalid_argument("PulseProgram: stage vector smaller than network");
  }
  const Stage n = static_cast<Stage>(clk.phases);
  const auto record_margin = [&](int64_t margin) {
    const auto bucket = std::min<std::size_t>(static_cast<std::size_t>(margin),
                                              margin_histogram_.size() - 1);
    ++margin_histogram_[bucket];
    min_margin_ = checked_edges_ == 0 ? margin : std::min(min_margin_, margin);
    ++checked_edges_;
  };

  order_ = net.topo_order();
  std::vector<Stage> release(net.size(), 0);
  for (const NodeId id : order_) {
    const Node& node = net.node(id);
    release[id] = release_of(node, id, stage, release);
    switch (node.type) {
      case GateType::Pi:
      case GateType::Const0:
      case GateType::Const1:
      case GateType::Buf:
      case GateType::T1Port:
        break;  // not a clocked consumer
      case GateType::T1: {
        const Stage sigma = stage[id];
        for (unsigned i = 0; i < 3; ++i) {
          const NodeId f = node.fanin(i);
          const Stage a = release[f];
          // Strictly inside the T1 clock cycle: sigma - n < arrival < sigma.
          if (a >= sigma || sigma - a >= n) {
            violations_.push_back({ViolationKind::T1InputOutsideCycle, id, f, a, sigma});
          } else {
            record_margin(std::min(a - (sigma - n) - 1, sigma - a - 1));
          }
        }
        for (unsigned i = 0; i < 3; ++i) {
          for (unsigned j = i + 1; j < 3; ++j) {
            const NodeId fj = node.fanin(j);
            if (release[node.fanin(i)] == release[fj]) {
              violations_.push_back(
                  {ViolationKind::T1InputCollision, id, fj, release[fj], sigma});
            }
          }
        }
        break;
      }
      default: {  // ordinary clocked cell (logic gate or DFF)
        const Stage sigma = stage[id];
        for (uint8_t i = 0; i < node.num_fanins; ++i) {
          const NodeId f = node.fanin(i);
          const GateType ft = net.node(f).type;
          if (ft == GateType::Const0 || ft == GateType::Const1) {
            continue;  // constants carry no pulse to park or collide with
          }
          const Stage gap = sigma - release[f];
          if (gap <= 0) {
            violations_.push_back({ViolationKind::NonPositiveGap, id, f, release[f], sigma});
          } else if (gap > n) {
            violations_.push_back({ViolationKind::GapExceedsWindow, id, f, release[f], sigma});
          } else {
            record_margin(std::min(gap - 1, n - gap));
          }
        }
      }
    }
  }
}

std::vector<uint64_t> PulseProgram::run(const std::vector<uint64_t>& pi_words) const {
  // Network::eval_word's T1 rules are the state machine's outcome per lane:
  // the body (S) is the loop's parity after the toggles, C* fired iff a
  // second pulse arrived (majority), Q* iff any did (OR). Arrival order only
  // matters for the timing checks, which the constructor already made.
  const std::vector<uint64_t> value = simulate_all_words(net_, pi_words, order_);
  std::vector<uint64_t> out;
  out.reserve(net_.num_pos());
  for (const NodeId po : net_.pos()) {
    out.push_back(value[po]);
  }
  return out;
}

PulseSimResult pulse_simulate(const Network& net, const std::vector<Stage>& stage,
                              const MultiphaseConfig& clk,
                              const std::vector<bool>& pi_values) {
  const PulseProgram program(net, stage, clk);
  std::vector<uint64_t> pi_words(pi_values.size());
  for (std::size_t i = 0; i < pi_values.size(); ++i) {
    pi_words[i] = pi_values[i] ? 1 : 0;
  }
  PulseSimResult result;
  for (const uint64_t word : program.run(pi_words)) {
    result.po_values.push_back((word & 1) != 0);
  }
  result.violations = program.violations();
  return result;
}

bool pulse_verify(const Network& net, const std::vector<Stage>& stage,
                  const MultiphaseConfig& clk, const Network& golden, unsigned rounds,
                  uint64_t seed) {
  if (net.num_pis() != golden.num_pis() || net.num_pos() != golden.num_pos()) {
    return false;
  }
  const PulseProgram program(net, stage, clk);
  if (!program.ok()) {
    return false;
  }
  // Wave k of round r draws its PI bits in PI order from one stream, as a
  // wave-at-a-time loop would; lane k of the round's words holds wave k.
  std::mt19937_64 rng(seed);
  std::vector<uint64_t> pi_words(net.num_pis());
  for (unsigned r = 0; r < rounds; ++r) {
    std::fill(pi_words.begin(), pi_words.end(), 0);
    for (unsigned k = 0; k < 64; ++k) {
      for (uint64_t& word : pi_words) {
        word |= (rng() & 1) << k;
      }
    }
    if (program.run(pi_words) != simulate_words(golden, pi_words)) {
      return false;
    }
  }
  return true;
}

}  // namespace t1sfq
