#pragma once
/// \file t1_detection.hpp
/// \brief Stage 1 of the flow: T1-FF detection and network rewrite (paper §II-A).
///
/// Cut enumeration (3-leaf priority cuts) followed by Boolean matching: every
/// set of 2..5 cuts that share the same three leaves and compute
/// T1-implementable functions is a candidate. The candidate's base gain is
///
///     ΔA = Σ A(MFFC(u_i)) − A_T1(C)                (paper eq. 2)
///
/// i.e. the area of everything that disappears when the roots are rerouted to
/// T1 ports, minus the cell (plus inverters for C*/Q*). On raw generator
/// netlists that difference is large and eq. 2 alone recovers the paper's
/// Table I. After pre-mapping optimization it is razor thin — an optimized
/// full adder is a xor3+maj3 pair at 28 JJ against the 29 JJ T1 body — and
/// raw eq. 2 silently converts nothing. The gain is therefore extended with
/// the terms the unified cost model (cost/cost_model.hpp) can see locally:
///   * clock-network shares — k dying clocked cells fund one clocked T1 body,
///   * splitter collapse — leaves feeding several cone gates feed the
///     time-multiplexed T1 inputs exactly once,
///   * phase alignment — dying interior/root DFF spines, minus the eq.-3
///     landing chains the T1 inputs need, counted as savings only: a net
///     DFF charge never vetoes a structural win. Per-candidate charges at
///     ASAP stages assume the neighbours stay unconverted, which
///     systematically overprices chain fusion — measured on the 16-bit seed
///     adder, signed charging (dedicated landings included, paper eq. 4)
///     converts 8/15 full adders for 1459 JJ where savings-only converts
///     15/15 for 1165 JJ.
/// Candidates with ΔA > 0 are committed greedily in descending-gain order; a
/// candidate is skipped when a previous commitment consumed any of its roots,
/// cone nodes or leaves ("found" vs "used" in Table I).
///
/// Detection runs up to `max_rounds` times: every committed T1 reshapes the
/// stage landscape (a carry port lands slot-aligned for free in the next
/// adder), so gains that were negative in one round turn positive in the
/// next and chain fusion cascades through ripple structures.

#include <cstdint>
#include <vector>

#include "cost/cost_model.hpp"
#include "network/network.hpp"
#include "sfq/cell_library.hpp"

namespace t1sfq {

class IncrementalView;

struct T1DetectionParams {
  unsigned max_cuts = 16;           ///< priority cuts kept per node
  bool require_positive_gain = true;  ///< commit only when ΔA > 0
  unsigned min_cuts_per_group = 2;  ///< paper: 2 <= n <= 5
  unsigned max_cuts_per_group = 5;
  /// Detection rounds (each re-enumerates cuts on the rewritten network);
  /// 1 reproduces single-shot detection.
  unsigned max_rounds = 3;
  /// Schedule-aware guard: when the ASAP estimate alone would reject a
  /// candidate, run bounded coordinate-descent sweeps (`refine_schedule`,
  /// incr/schedule_refiner.hpp) around the new body and accept if the
  /// refined schedule recovers the loss. ASAP stages cannot align
  /// voter-class landings; a few local sweeps can — the final phase
  /// assignment then realizes the refined schedule. Default on: the full
  /// acceptance rule (refined estimate + a DFF-lambda premium on committed
  /// landing chains + the counterfactual latency envelope) plus the
  /// keep-the-better-result fallback make the rescue an improvement or a
  /// no-op by construction — on the shrink-8 suite it converts the
  /// voter-class majority trees the ASAP guard declines (67 -> 92 T1, area
  /// 7400 -> 7210 JJ at +5 DFFs, depth unchanged) and leaves every other
  /// Table-I figure alone (unpriced, the raw rescue bought that win with +30
  /// landing DFFs and one extra pipeline cycle). No commit may push the
  /// balanced sink past the cycle the *ASAP-only counterfactual* ends at,
  /// measured by running the same detection with the rescue off on a probe
  /// copy (roughly doubling detection time, still milliseconds at Table-I
  /// scale).
  bool schedule_aware_guard = true;
  /// Probe-cost bound of the schedule-aware guard: the measured ASAP-only
  /// counterfactual run (which roughly doubles detection time) only executes
  /// when the network has at most this many gates. Above the bound the
  /// latency envelope is instead anchored at the *maintained* incremental
  /// depth bound — the persistent view's output stage at round entry, the
  /// same anchor `detect_round` ratchets the cap to anyway — and the
  /// keep-the-better-result fallback is skipped. Strictly more conservative than the probe (commits
  /// may not deepen the sink past the *input* latency instead of past the
  /// ASAP-only *result* latency), so the no-depth-regression guarantee is
  /// preserved at a fraction of the cost on large netlists.
  std::size_t guard_probe_max_gates = 20000;
};

struct T1DetectionStats {
  std::size_t found = 0;      ///< profitable candidate groups before conflicts
  std::size_t used = 0;       ///< T1 cells actually instantiated
  int64_t estimated_gain = 0; ///< Σ ΔA over the committed groups (unified JJ)
};

/// Rewrites \p net in place and compacts it (node ids are NOT stable across
/// the call); returns statistics. The \p model supplies the unified JJ
/// pricing (library, splitter/clock accounting, clocking for the spine
/// arithmetic) — pass the flow's own model so detection prices at the phase
/// count that will actually be scheduled.
T1DetectionStats detect_and_replace_t1(Network& net, const CostModel& model,
                                       const T1DetectionParams& params = {});

/// As above, but detection maintains the caller's \p reuse_view (over \p net)
/// instead of building a private one, and *keeps it alive* across the final
/// compaction by translating it through the cleanup remap
/// (`IncrementalView::rebind_after_cleanup`) — so the assignment stage can
/// inherit the detection-built view, dirty set and all, instead of paying a
/// fresh O(n) build. Identical decisions and network results. The view
/// should be plan-tracking when the commit guard is active
/// (`require_positive_gain`); a view detection cannot adopt
/// (wrong tracking mode) is rebuilt from the final network before returning,
/// so the caller's view is valid either way.
T1DetectionStats detect_and_replace_t1(Network& net, const CostModel& model,
                                       const T1DetectionParams& params,
                                       IncrementalView* reuse_view);

/// Convenience overload for library-only callers (tests, examples): prices
/// with default accounting and 4-phase clocking. Do not use from a flow with
/// a different phase count — the DFF-aware terms and the commit gatekeeper
/// would be evaluated at the wrong clocking.
T1DetectionStats detect_and_replace_t1(Network& net, const CellLibrary& lib,
                                       const T1DetectionParams& params = {});

}  // namespace t1sfq
