#pragma once
/// \file cut_rewriting.hpp
/// \brief Cut rewriting: replace cut MFFCs with cheaper database structures.
///
/// For every rewritable node the pass enumerates priority k-cuts
/// (cut_enumeration.hpp, k = 4), matches each cut function
/// against the precomputed structure database (rewrite_db.hpp — exact table
/// lookup with an NPN-class fallback via npn.hpp), and prices a replacement
/// in the unified JJ currency (`rewrite_delta`, opt/jj_delta.hpp):
///
///     delta = structure JJ − MFFC JJ − splitter/DFF-spine reclaim,
///     score = delta + (est. new level − old level) · DFF marginal,
///
/// the DAG-aware rewriting gain (Mishchenko et al., DAC'06) priced through
/// the CostModel: the MFFC is exactly what dies when the root is rerouted,
/// and structural hashing can only shrink the realized structure cost. The
/// depth term values every level saved at one balancing DFF — the same λ the
/// database ranks structures by — because depth reductions shorten spines and
/// (on critical paths) the balanced output stage itself. The best
/// negative-score cut per root is committed (ties prefer smaller depth);
/// every commit is constrained to a new root level at most the old one, so
/// network depth never increases.

#include "opt/pass.hpp"

namespace t1sfq {

class CutRewritingPass : public Pass {
public:
  using Pass::Pass;
  const char* name() const override { return "cut-rewriting"; }
  std::size_t run(Network& net) override;
};

}  // namespace t1sfq
