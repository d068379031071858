#pragma once
/// \file schedule_refiner.hpp
/// \brief Coordinate descent on stage assignments over an IncrementalView
/// (src/incr).
///
/// Multiphase retiming (paper §II-B) makes one decision per clocked element:
/// slide its stage inside the eq.-3 window to the value that needs the fewest
/// path-balancing DFFs. `descend_stage` is that move, and the only copy of
/// it: the flow scheduler (`assign_phases`, core/phase_assignment.hpp) sweeps
/// it over the whole network, and the T1 commit guard's `refine_schedule`
/// sweeps it over a small neighbourhood of a new T1 body.
///
/// The guard compares shared-spine DFF estimates under ASAP stages. ASAP is
/// the scheduler's *seed*, not its answer: the sweeps routinely slide drivers
/// later so landing chains align with existing spines — savings the ASAP
/// estimate cannot see, which makes the guard decline candidates
/// (voter-class majority trees above all) that the final schedule would have
/// converted at a profit. `refine_schedule` closes that gap without paying
/// for a full assignment per candidate: it copies the view's ASAP stages,
/// collects the movable neighbourhood of the seed nodes (BFS over fanin and
/// fanout edges, bounded radius and size), and runs a few sweeps of
/// `descend_stage` over it, deepest first. The refined whole-network plan
/// total is returned for the guard to compare; the view and the network are
/// never mutated. Work is proportional to the movable set (plus one O(n)
/// stage-vector copy), so a guard rescue costs about as much as the commit
/// it vets.

#include <cstdint>
#include <vector>

#include "incr/incremental_view.hpp"

namespace t1sfq {

/// Calls \p f on every timed consumer of scheduled element \p u: each clocked
/// consumer (T1 bodies included) of u's output pins — u itself, or the taps
/// of a T1 body — with multiplicity, and kNullNode for each pin that is a
/// primary output (the balanced sink).
template <class F>
void for_each_timed_consumer(const IncrementalView& view, NodeId u, F&& f) {
  const Network& net = view.net();
  const auto visit = [&](NodeId pin) {
    for (const NodeId c : view.consumers(pin)) {
      if (is_clocked(net.node(c).type)) f(c);
    }
    if (view.is_po(pin)) f(kNullNode);
  };
  visit(u);
  for (const NodeId c : view.consumers(u)) {
    if (net.node(c).type == GateType::T1Port) visit(c);
  }
}

/// Latest stage scheduled element \p u may take under \p stage with every
/// consumer kept feasible and the balanced sink at \p sink: plain consumers
/// one stage later, T1 consumers under eq. 3 with their other fanins fixed.
/// A node without timed consumers is bounded by the sink alone.
Stage stage_upper_bound(const IncrementalView& view, const std::vector<Stage>& stage,
                        Stage sink, NodeId u);

/// The pins and T1 bodies whose plan quantities (spine lengths, dedicated
/// landings) a stage move prices.
struct StageScope {
  std::vector<NodeId> pins;
  std::vector<NodeId> t1s;
};

/// One coordinate-descent move of clocked element \p u on \p stage, a
/// feasible assignment over `view.net()` with T1 taps aliased to their body,
/// balanced at sink stage \p sink. The window runs from
/// `sched_local_lower_bound` to `stage_upper_bound`; the candidates are the
/// whole window when it spans at most 6n stages, else 3n+1 stages at each
/// end. Each candidate is priced as `plan_spine_on` + `t1_dedicated_on` over
/// the pins and T1 bodies u's stage enters (the pins of u, its fanin pins and
/// every fanin pin of a T1 it touches); the cheapest wins, ties going to the
/// current stage, then to the lower stage. With no T1 in scope, a fanin
/// pin's consumers other than u are priced once per move, not per
/// candidate. Moves u (and its taps) there and returns true when it changed;
/// \p scope then holds what the move priced.
bool descend_stage(const IncrementalView& view, std::vector<Stage>& stage, Stage sink,
                   NodeId u, StageScope& scope);

/// Refines the view's ASAP stages around \p seeds and returns the
/// planned-DFF total of the whole network under the refined assignment
/// (== view.planned_dffs() when no move improves). The refined assignment
/// is feasible by construction.
int64_t refine_schedule(const IncrementalView& view, const std::vector<NodeId>& seeds);

}  // namespace t1sfq
