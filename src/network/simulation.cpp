#include "network/simulation.hpp"

#include <bit>
#include <cassert>
#include <random>
#include <stdexcept>

namespace t1sfq {

std::vector<uint64_t> simulate_all_words(const Network& net,
                                         const std::vector<uint64_t>& pi_words) {
  if (pi_words.size() != net.num_pis()) {
    throw std::invalid_argument("simulate: wrong number of PI words");
  }
  std::vector<uint64_t> value(net.size(), 0);
  for (std::size_t i = 0; i < net.num_pis(); ++i) {
    value[net.pi(i)] = pi_words[i];
  }
  for (const NodeId id : net.topo_order()) {
    const Node& n = net.node(id);
    switch (n.type) {
      case GateType::Pi:
        break;  // already seeded
      case GateType::T1Port: {
        const Node& body = net.node(n.fanin(0));
        value[id] = Network::eval_word(GateType::T1Port, n.port, value[body.fanin(0)],
                                       value[body.fanin(1)], value[body.fanin(2)]);
        break;
      }
      default: {
        const uint64_t a = n.num_fanins > 0 ? value[n.fanin(0)] : 0;
        const uint64_t b = n.num_fanins > 1 ? value[n.fanin(1)] : 0;
        const uint64_t c = n.num_fanins > 2 ? value[n.fanin(2)] : 0;
        value[id] = Network::eval_word(n.type, n.port, a, b, c);
      }
    }
  }
  return value;
}

std::vector<uint64_t> simulate_words(const Network& net, const std::vector<uint64_t>& pi_words) {
  const auto value = simulate_all_words(net, pi_words);
  std::vector<uint64_t> out;
  out.reserve(net.num_pos());
  for (NodeId po : net.pos()) {
    out.push_back(value[po]);
  }
  return out;
}

std::vector<bool> simulate(const Network& net, const std::vector<bool>& pi_values) {
  std::vector<uint64_t> words(pi_values.size());
  for (std::size_t i = 0; i < pi_values.size(); ++i) {
    words[i] = pi_values[i] ? ~uint64_t{0} : 0;
  }
  const auto out = simulate_words(net, words);
  std::vector<bool> bits(out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    bits[i] = out[i] & 1;
  }
  return bits;
}

std::vector<TruthTable> simulate_truth_tables(const Network& net) {
  const unsigned n = static_cast<unsigned>(net.num_pis());
  if (n > TruthTable::kMaxVars) {
    throw std::invalid_argument("simulate_truth_tables: too many PIs");
  }
  const std::size_t bits = std::size_t{1} << n;
  const std::size_t words = std::max<std::size_t>(1, bits / 64);
  std::vector<TruthTable> pis;
  pis.reserve(n);
  for (unsigned v = 0; v < n; ++v) {
    pis.push_back(TruthTable::nth_var(n, v));
  }
  std::vector<TruthTable> result(net.num_pos(), TruthTable(n));
  for (std::size_t w = 0; w < words; ++w) {
    std::vector<uint64_t> pi_words(n);
    for (unsigned v = 0; v < n; ++v) {
      pi_words[v] = pis[v].word(w);
    }
    const auto out = simulate_words(net, pi_words);
    for (std::size_t p = 0; p < out.size(); ++p) {
      result[p].set_word(w, out[p]);
    }
  }
  return result;
}

std::vector<std::vector<uint64_t>> random_pattern_words(std::size_t num_pis, unsigned rounds,
                                                        uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::vector<uint64_t>> words(rounds, std::vector<uint64_t>(num_pis));
  for (unsigned r = 0; r < rounds; ++r) {
    for (auto& w : words[r]) {
      w = rng();
      if (r == 0) {
        w = (w & ~uint64_t{3}) | 2;  // bit 0: all-zero pattern, bit 1: all-one
      }
    }
  }
  return words;
}

std::optional<SimulationMismatch> random_simulation_mismatch(const Network& a, const Network& b,
                                                             unsigned rounds, uint64_t seed) {
  if (a.num_pis() != b.num_pis() || a.num_pos() != b.num_pos()) {
    throw std::invalid_argument("random_simulation_mismatch: interface mismatch");
  }
  for (const auto& pi_words : random_pattern_words(a.num_pis(), rounds, seed)) {
    const auto oa = simulate_words(a, pi_words);
    const auto ob = simulate_words(b, pi_words);
    for (std::size_t p = 0; p < oa.size(); ++p) {
      const uint64_t diff = oa[p] ^ ob[p];
      if (diff == 0) {
        continue;
      }
      const unsigned bit = static_cast<unsigned>(std::countr_zero(diff));
      SimulationMismatch m;
      m.output = p;
      m.inputs.reserve(pi_words.size());
      for (const uint64_t w : pi_words) {
        m.inputs.push_back((w >> bit) & 1);
      }
      return m;
    }
  }
  return std::nullopt;
}

bool random_simulation_equal(const Network& a, const Network& b, unsigned rounds,
                             uint64_t seed) {
  if (a.num_pis() != b.num_pis() || a.num_pos() != b.num_pos()) {
    return false;
  }
  return !random_simulation_mismatch(a, b, rounds, seed);
}

}  // namespace t1sfq
