#pragma once
/// \file aig.hpp
/// \brief And-Inverter Graphs — the pre-mapping logic representation.
///
/// The paper's flow consumes *mapped* SFQ networks produced by a logic
/// synthesis front end (mockturtle in the authors' setup). This module
/// supplies that front end: a classic AIG with complemented edges and
/// structural hashing, plus word-parallel simulation. `map_to_sfq()`
/// (technology_mapping.hpp) covers an AIG with the SFQ standard cells and
/// hands the result to the T1 flow.
///
/// Literals follow the AIGER convention: node index << 1 | complement bit;
/// constant false is literal 0.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "network/truth_table.hpp"

namespace t1sfq {

class Aig {
public:
  using Lit = uint32_t;
  static constexpr Lit kFalse = 0;
  static constexpr Lit kTrue = 1;

  static Lit make_lit(uint32_t node, bool complement) {
    return (node << 1) | (complement ? 1u : 0u);
  }
  static uint32_t lit_node(Lit l) { return l >> 1; }
  static bool lit_compl(Lit l) { return l & 1; }
  static Lit lit_not(Lit l) { return l ^ 1; }

  Aig() = default;
  explicit Aig(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  Lit add_pi();
  /// Strashed AND with constant/idempotence/complement folding.
  Lit add_and(Lit a, Lit b);
  void add_po(Lit l) { pos_.push_back(l); }

  // Derived operators (expand into ANDs).
  Lit add_or(Lit a, Lit b) { return lit_not(add_and(lit_not(a), lit_not(b))); }
  Lit add_xor(Lit a, Lit b);
  Lit add_mux(Lit sel, Lit t, Lit e);
  Lit add_maj(Lit a, Lit b, Lit c);

  std::size_t num_nodes() const { return nodes_.size(); }  ///< incl. constant node 0
  std::size_t num_pis() const { return pis_.size(); }
  std::size_t num_pos() const { return pos_.size(); }
  const std::vector<uint32_t>& pis() const { return pis_; }
  const std::vector<Lit>& pos() const { return pos_; }

  bool is_pi(uint32_t node) const { return nodes_[node].fanin0 == kInvalid && node != 0; }
  bool is_const(uint32_t node) const { return node == 0; }
  bool is_and(uint32_t node) const { return nodes_[node].fanin0 != kInvalid && node != 0; }
  Lit fanin0(uint32_t node) const { return nodes_[node].fanin0; }
  Lit fanin1(uint32_t node) const { return nodes_[node].fanin1; }

  /// Number of AND nodes.
  std::size_t num_ands() const;
  /// Levels (ANDs count 1, PIs/constant 0).
  std::vector<uint32_t> levels() const;
  uint32_t depth() const;

  /// Word-parallel simulation: value word per node for the given PI words.
  std::vector<uint64_t> simulate_words(const std::vector<uint64_t>& pi_words) const;
  /// PO truth tables over <= 16 PIs (exhaustive).
  std::vector<TruthTable> simulate_truth_tables() const;

private:
  static constexpr Lit kInvalid = ~Lit{0};

  struct Node {
    Lit fanin0 = kInvalid;
    Lit fanin1 = kInvalid;
  };

  std::string name_;
  std::vector<Node> nodes_ = std::vector<Node>(1);  // node 0 = constant false
  std::vector<uint32_t> pis_;
  std::vector<Lit> pos_;
  std::unordered_map<uint64_t, uint32_t> strash_;  ///< (fanin0, fanin1) -> node
};

}  // namespace t1sfq
