#pragma once
/// \file simulation.hpp
/// \brief Word-parallel functional simulation of networks.
///
/// Simulation serves three purposes in this library: verifying benchmark
/// generators against bit-exact software models, checking that every flow
/// stage preserves the combinational function, and computing cut functions
/// during T1 detection. DFFs are treated as transparent (they only balance
/// timing), and T1 ports evaluate their XOR3/MAJ3/OR3 output functions.

#include <cstdint>
#include <optional>
#include <vector>

#include "network/network.hpp"

namespace t1sfq {

/// Evaluates the network on one assignment of 64 parallel input patterns:
/// `pi_words[i]` holds 64 values for PI i. Returns one word per PO.
std::vector<uint64_t> simulate_words(const Network& net, const std::vector<uint64_t>& pi_words);
/// As above, evaluating the live nodes in \p order (`net.topo_order()`,
/// computed once by callers that simulate many words).
std::vector<uint64_t> simulate_words(const Network& net, const std::vector<uint64_t>& pi_words,
                                     const std::vector<NodeId>& order);

/// Evaluates the network on a single Boolean input vector.
std::vector<bool> simulate(const Network& net, const std::vector<bool>& pi_values);

/// Node values (one word per node) for one word-parallel assignment;
/// used by passes that need internal values, not just POs.
std::vector<uint64_t> simulate_all_words(const Network& net,
                                         const std::vector<uint64_t>& pi_words);

/// As above, evaluating the live nodes in \p order, which must be a
/// topological order of them (`net.topo_order()`): callers that simulate many
/// words compute it once.
std::vector<uint64_t> simulate_all_words(const Network& net,
                                         const std::vector<uint64_t>& pi_words,
                                         const std::vector<NodeId>& order);

/// Exhaustive simulation: requires `num_pis() <= 16`. Returns, per PO, the
/// complete truth table over the PIs (PI 0 is variable 0).
std::vector<TruthTable> simulate_truth_tables(const Network& net);

/// The PI words of `rounds` word-parallel random assignments drawn from
/// \p seed (`result[round][pi]`). Round 0 carries the all-zero pattern in bit
/// 0 and the all-one pattern in bit 1 of every word.
std::vector<std::vector<uint64_t>> random_pattern_words(std::size_t num_pis, unsigned rounds,
                                                        uint64_t seed = 0x5eed);

/// A PI assignment on which two networks differ, and the first PO it reaches.
struct SimulationMismatch {
  std::vector<bool> inputs;
  std::size_t output = 0;
};

/// Simulates both networks on `random_pattern_words(rounds, seed)` and returns
/// the first differing pattern (earliest round, lowest PO, lowest bit), or
/// nothing when they agree on all of them. Throws std::invalid_argument when
/// the PI/PO counts differ.
std::optional<SimulationMismatch> random_simulation_mismatch(const Network& a, const Network& b,
                                                             unsigned rounds = 16,
                                                             uint64_t seed = 0x5eed);

/// True iff the networks have matching PI/PO counts and
/// `random_simulation_mismatch` finds no differing pattern.
bool random_simulation_equal(const Network& a, const Network& b, unsigned rounds = 16,
                             uint64_t seed = 0x5eed);

}  // namespace t1sfq
