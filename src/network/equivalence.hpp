#pragma once
/// \file equivalence.hpp
/// \brief Combinational equivalence checking (random simulation + SAT sweeping).
///
/// Every stage of the T1 flow must preserve the combinational function of the
/// network (DFFs are timing-only, T1 ports compute XOR3/MAJ3/OR3). This module
/// provides the two standard checks: fast word-parallel random simulation as a
/// falsifier, and a complete SAT proof. The proof is one SAT-sweeping engine
/// (Mishchenko et al., "FRAIGs", 2005): both networks are lowered into one
/// structurally hashed AIG over shared PIs, internal nodes with equal
/// simulation signatures are proved equal pairwise on small windows with the
/// repository's CDCL solver and merged, and only the outputs that do not
/// collapse to one literal get a full-cone miter. Every checker in the
/// repository (the pass guard, shard proofs, `verify_flow`, the benches) runs
/// on it.

#include <optional>
#include <vector>

#include "network/network.hpp"
#include "solver/sat.hpp"

namespace t1sfq {

/// Tseitin-encodes the network into \p solver. Returns per-node literals;
/// PIs get fresh variables (shared via \p pi_lits if non-empty, so two
/// networks can be encoded over the same inputs, e.g. by resubstitution).
std::vector<Lit> encode_network(const Network& net, SatSolver& solver,
                                std::vector<Lit>& pi_lits);

enum class EquivalenceResult { Equivalent, NotEquivalent, Unknown };

struct EquivalenceCheck {
  EquivalenceResult result = EquivalenceResult::Unknown;
  /// When NotEquivalent: a PI assignment on which the networks differ.
  std::vector<bool> counterexample;
  std::size_t failing_output = 0;
};

/// Complete check by SAT sweeping: Equivalent only when every PO pair is
/// proved, Unknown only when an output miter runs out of budget. An interface
/// mismatch is NotEquivalent without a counterexample. \p conflict_budget caps
/// every SAT call (0 = unlimited; internal pair proofs are capped tighter).
/// Flushes the `cec.*` counters once per call.
EquivalenceCheck check_equivalence_sat(const Network& a, const Network& b,
                                       uint64_t conflict_budget = 0);

/// Two-tier convenience: random simulation first (`random_simulation_mismatch`
/// on \p sim_rounds words; a falsified pair comes back with the first differing
/// pattern), then the SAT-sweeping proof with \p sim_rounds signature words.
/// Returns Equivalent only when SAT proved it.
EquivalenceCheck check_equivalence(const Network& a, const Network& b,
                                   unsigned sim_rounds = 8, uint64_t conflict_budget = 0);

}  // namespace t1sfq
