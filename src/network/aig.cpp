#include "network/aig.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace t1sfq {

Aig::Lit Aig::add_pi() {
  nodes_.push_back(Node{});
  const uint32_t node = static_cast<uint32_t>(nodes_.size() - 1);
  pis_.push_back(node);
  return make_lit(node, false);
}

Aig::Lit Aig::add_and(Lit a, Lit b) {
  if (a > b) {
    std::swap(a, b);
  }
  // Folding.
  if (a == kFalse || b == kFalse) return kFalse;
  if (a == kTrue) return b;
  if (b == kTrue) return a;
  if (a == b) return a;
  if (a == lit_not(b)) return kFalse;

  // The key is the ordered fanin pair itself, so it names at most one node.
  const uint64_t key = (static_cast<uint64_t>(a) << 32) | b;
  const auto [it, inserted] = strash_.try_emplace(key, static_cast<uint32_t>(nodes_.size()));
  if (inserted) {
    nodes_.push_back(Node{a, b});
  }
  return make_lit(it->second, false);
}

Aig::Lit Aig::add_xor(Lit a, Lit b) {
  // a ^ b = !( !(a & !b) & !(!a & b) )
  return lit_not(add_and(lit_not(add_and(a, lit_not(b))), lit_not(add_and(lit_not(a), b))));
}

Aig::Lit Aig::add_mux(Lit sel, Lit t, Lit e) {
  return lit_not(add_and(lit_not(add_and(sel, t)), lit_not(add_and(lit_not(sel), e))));
}

Aig::Lit Aig::add_maj(Lit a, Lit b, Lit c) {
  return lit_not(add_and(lit_not(add_and(a, b)),
                         lit_not(add_and(lit_not(add_and(lit_not(a), lit_not(b))), c))));
}

std::size_t Aig::num_ands() const {
  std::size_t n = 0;
  for (uint32_t i = 1; i < nodes_.size(); ++i) {
    n += is_and(i);
  }
  return n;
}

std::vector<uint32_t> Aig::levels() const {
  std::vector<uint32_t> lvl(nodes_.size(), 0);
  for (uint32_t i = 1; i < nodes_.size(); ++i) {
    if (is_and(i)) {
      lvl[i] = 1 + std::max(lvl[lit_node(nodes_[i].fanin0)], lvl[lit_node(nodes_[i].fanin1)]);
    }
  }
  return lvl;
}

uint32_t Aig::depth() const {
  const auto lvl = levels();
  uint32_t d = 0;
  for (const Lit po : pos_) {
    d = std::max(d, lvl[lit_node(po)]);
  }
  return d;
}

std::vector<uint64_t> Aig::simulate_words(const std::vector<uint64_t>& pi_words) const {
  if (pi_words.size() != pis_.size()) {
    throw std::invalid_argument("Aig::simulate_words: wrong PI count");
  }
  std::vector<uint64_t> value(nodes_.size(), 0);
  for (std::size_t i = 0; i < pis_.size(); ++i) {
    value[pis_[i]] = pi_words[i];
  }
  for (uint32_t i = 1; i < nodes_.size(); ++i) {
    if (!is_and(i)) continue;
    const Lit f0 = nodes_[i].fanin0;
    const Lit f1 = nodes_[i].fanin1;
    const uint64_t a = lit_compl(f0) ? ~value[lit_node(f0)] : value[lit_node(f0)];
    const uint64_t b = lit_compl(f1) ? ~value[lit_node(f1)] : value[lit_node(f1)];
    value[i] = a & b;
  }
  return value;
}

std::vector<TruthTable> Aig::simulate_truth_tables() const {
  const unsigned n = static_cast<unsigned>(pis_.size());
  if (n > TruthTable::kMaxVars) {
    throw std::invalid_argument("Aig::simulate_truth_tables: too many PIs");
  }
  const std::size_t bits = std::size_t{1} << n;
  const std::size_t words = std::max<std::size_t>(1, bits / 64);
  std::vector<TruthTable> out(pos_.size(), TruthTable(n));
  for (std::size_t w = 0; w < words; ++w) {
    std::vector<uint64_t> pi_words(n);
    for (unsigned v = 0; v < n; ++v) {
      pi_words[v] = TruthTable::nth_var(n, v).word(w);
    }
    const auto value = simulate_words(pi_words);
    for (std::size_t p = 0; p < pos_.size(); ++p) {
      const Lit po = pos_[p];
      const uint64_t word = lit_compl(po) ? ~value[lit_node(po)] : value[lit_node(po)];
      out[p].set_word(w, word);
    }
  }
  return out;
}

}  // namespace t1sfq
