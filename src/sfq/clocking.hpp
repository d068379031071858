#pragma once
/// \file clocking.hpp
/// \brief Multiphase clocking arithmetic (paper §I-B, eq. 1).
///
/// An n-phase system drives every clocked element with one of n evenly spaced
/// clock signals per cycle. A gate g has an epoch S(g) (cycle count from the
/// PIs) and a phase φ(g) ∈ {0..n−1}; the paper folds both into the *stage*
///     σ(g) = n·S(g) + φ(g)                       (eq. 1)
/// Stages give a total order of firing times: element at stage σp hands a
/// pulse to a consumer at σc > σp; when the gap exceeds n stages the pulse
/// must be parked in path-balancing DFFs clocked at intermediate stages, one
/// per window of n stages.

#include <cstdint>

namespace t1sfq {

using Stage = int64_t;

struct MultiphaseConfig {
  unsigned phases = 4;  ///< n; 1 reproduces conventional single-phase clocking

  unsigned phase_of(Stage sigma) const { return static_cast<unsigned>(sigma % phases); }
  Stage epoch_of(Stage sigma) const { return sigma / phases; }
  Stage stage(Stage epoch, unsigned phase) const {
    return epoch * static_cast<Stage>(phases) + phase;
  }

  /// Number of path-balancing DFFs needed on a point-to-point connection from
  /// a producer clocked at \p from to a consumer clocked at \p to:
  /// consecutive clocked elements may be at most n stages apart, so the chain
  /// needs ceil((to-from)/n) − 1 intermediate DFFs.
  Stage dffs_on_edge(Stage from, Stage to) const {
    if (to <= from) {
      return 0;  // not a legal forward edge; callers validate separately
    }
    const Stage gap = to - from;
    return (gap + phases - 1) / phases - 1;
  }

  /// Paper eq. 5, for a T1 input that must land at exactly stage \p at from a
  /// producer at \p from (T1 fanins take slots one to three stages before
  /// the body): the chain rides `landing_spine` DFFs of the producer's shared
  /// spine, each n stages after the last, and needs one dedicated landing
  /// DFF of its own when \p at is off that spine. Together they are
  /// `dffs_on_edge(from, at) + 1` for a real gap, and 0 when \p at == \p from
  /// (the producer itself lands). Callers reject \p at < \p from first.
  Stage landing_spine(Stage from, Stage at) const {
    return at > from ? (at - from) / phases : 0;
  }
  bool landing_dedicated(Stage from, Stage at) const {
    return at > from && (at - from) % phases != 0;
  }

  /// Latency of stage \p sigma in clock cycles (what the paper's Table I
  /// "Depth" column reports): the epoch of the last firing, counting the
  /// PIs' epoch as cycle zero, i.e. ceil(sigma / n).
  Stage cycles(Stage sigma) const { return (sigma + phases - 1) / phases; }
};

}  // namespace t1sfq
