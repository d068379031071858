#include "opt/jj_delta.hpp"

#include <algorithm>

namespace t1sfq {

namespace {

/// Splitter JJ reclaimed when \p cone dies: interior fanout splitters
/// (excluding the node \p keep_consumers_of, whose consumers survive on the
/// replacement pin) plus splitters on external fanins whose cone uses
/// collapse to at most one use by the replacement. A fanin equal to
/// \p skip_external_fanin is not reclaimed here — callers that re-route
/// consumers onto that pin account for its edge changes exactly.
int64_t cone_splitter_jj(const IncrementalView& view, const std::vector<NodeId>& cone,
                         NodeId keep_consumers_of, NodeId skip_external_fanin = kNullNode) {
  const int64_t per = view.model().splitter_jj();
  if (per == 0) {
    return 0;
  }
  const Network& net = view.net();
  const auto in_cone = [&](NodeId id) {
    return std::find(cone.begin(), cone.end(), id) != cone.end();
  };
  int64_t reclaimed = 0;
  // Interior splitters: a dying node's fanout collapses entirely.
  for (const NodeId d : cone) {
    if (d != keep_consumers_of && view.fanout(d) > 1) {
      reclaimed += static_cast<int64_t>(view.fanout(d) - 1) * per;
    }
  }
  // External fanins: every cone use beyond the first dies with the cone; the
  // replacement is assumed to take at most one use per fanin.
  std::vector<std::pair<NodeId, uint32_t>> uses;  // external fanin -> cone uses
  for (const NodeId d : cone) {
    const Node& n = net.node(d);
    for (uint8_t i = 0; i < n.num_fanins; ++i) {
      const NodeId f = n.fanin(i);
      if (in_cone(f)) continue;
      auto it = std::find_if(uses.begin(), uses.end(),
                             [&](const auto& u) { return u.first == f; });
      if (it == uses.end()) {
        uses.push_back({f, 1});
      } else {
        ++it->second;
      }
    }
  }
  for (const auto& [f, n_uses] : uses) {
    if (f == skip_external_fanin) continue;
    if (n_uses > 1 && view.fanout(f) > 1) {
      reclaimed += static_cast<int64_t>(std::min(n_uses - 1, view.fanout(f) - 1)) * per;
    }
  }
  return reclaimed;
}

/// DFF JJ of the spines of every cone node except \p exclude.
int64_t cone_spine_jj(const IncrementalView& view, const std::vector<NodeId>& cone,
                      NodeId exclude) {
  int64_t dffs = 0;
  for (const NodeId d : cone) {
    if (d != exclude) {
      dffs += view.spine(d);
    }
  }
  return dffs * view.model().dff_jj();
}

}  // namespace

int64_t rewrite_delta(const IncrementalView& view, NodeId root,
                      const std::vector<NodeId>& cone, int64_t new_jj, uint32_t new_level) {
  const CostModel& model = view.model();
  int64_t delta = new_jj - model.cone_jj(view.net(), cone);
  delta -= cone_splitter_jj(view, cone, root);
  delta -= cone_spine_jj(view, cone, root);
  // The root keeps its consumers but may move down: the spine to the (still
  // unmoved) consumers stretches accordingly.
  delta += (view.spine_at(root, static_cast<Stage>(new_level)) - view.spine(root)) *
           model.dff_jj();
  return delta;
}

int64_t resub_delta(const IncrementalView& view, NodeId target,
                    const std::vector<NodeId>& cone, NodeId donor, bool invert,
                    NodeId existing_inv, Stage pin_at) {
  const CostModel& model = view.model();
  // The pin whose edges change: the donor, its existing inverter, or (when
  // kNullNode) a new inverter priced below. Its edge arithmetic is exact
  // here, so the generic external-fanin reclaim must skip it.
  const NodeId pin = invert ? existing_inv : donor;
  int64_t delta = -model.cone_jj(view.net(), cone);
  delta -= cone_splitter_jj(view, cone, kNullNode, pin != kNullNode ? pin : donor);
  delta -= cone_spine_jj(view, cone, kNullNode);

  // Stage positions the donor-side pin must newly cover.
  std::vector<Stage> absorbed;
  for (const NodeId c : view.consumers(target)) {
    absorbed.push_back(view.stage(c));
  }
  if (view.is_po(target)) {
    absorbed.push_back(view.output_stage());
  }

  const auto edges_into_cone = [&](NodeId d) {
    int64_t k = 0;
    for (const NodeId c : view.consumers(d)) {
      k += std::find(cone.begin(), cone.end(), c) != cone.end() ? 1 : 0;
    }
    return k;
  };
  const auto splitters = [](int64_t edges) { return std::max<int64_t>(0, edges - 1); };

  if (pin != kNullNode) {
    const Stage at = pin_at >= 0 ? pin_at : view.stage(pin);
    delta += (view.spine_at(pin, at, nullptr, &absorbed) - view.spine(pin)) * model.dff_jj();
    if (at != view.stage(pin)) {
      // Sliding the pin lengthens its own fanin edges: charge the growth of
      // each fanin's shared spine (with the pin's old edge ignored and the
      // slid edge added), so the slack discount never claims downstream
      // savings the upstream spines pay for.
      const Node& pn = view.net().node(pin);
      const std::vector<NodeId> skip{pin};
      const std::vector<Stage> slid{at};
      for (uint8_t i = 0; i < pn.num_fanins; ++i) {
        const NodeId f = pn.fanin(i);
        delta += (view.spine(f, &skip, &slid) - view.spine(f)) * model.dff_jj();
      }
    }
    // The pin gains the target's consumer edges and loses its edges into the
    // dying cone.
    const int64_t old_edges = view.fanout(pin);
    const int64_t new_edges =
        old_edges - edges_into_cone(pin) + static_cast<int64_t>(absorbed.size());
    delta += (splitters(new_edges) - splitters(old_edges)) * model.splitter_jj();
  } else {
    // A new inverter one level above the donor (or at the caller's slack-
    // justified stage): cell cost plus its spine.
    delta += model.cell_jj(GateType::Not);
    const Stage s_not = pin_at >= 0 ? pin_at : view.stage(donor) + 1;
    Stage len = 0;
    for (const Stage sc : absorbed) {
      len = std::max(len, model.clk().dffs_on_edge(s_not, sc));
    }
    delta += len * model.dff_jj();
    if (s_not > view.stage(donor) + 1) {
      // A late-placed inverter stretches the donor's own spine to reach it
      // (conservative: the donor's dying cone edges are not discounted).
      const std::vector<Stage> inv_edge{s_not};
      delta += (view.spine(donor, nullptr, &inv_edge) - view.spine(donor)) * model.dff_jj();
    }
    // The donor trades its edges into the dying cone for the inverter edge;
    // the absorbed consumers land on the inverter.
    const int64_t old_edges = view.fanout(donor);
    const int64_t new_edges = old_edges - edges_into_cone(donor) + 1;
    delta += (splitters(new_edges) - splitters(old_edges)) * model.splitter_jj();
    delta += splitters(static_cast<int64_t>(absorbed.size())) * model.splitter_jj();
  }
  return delta;
}

}  // namespace t1sfq
