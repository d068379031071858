#include "core/dff_insertion.hpp"

#include "cost/cost_model.hpp"

#include <map>
#include <stdexcept>
#include <vector>

namespace t1sfq {

namespace {

class Inserter {
public:
  Inserter(const Network& net, const PhaseAssignment& pa, const MultiphaseConfig& clk)
      : net_(net), pa_(pa), clk_(clk), n_(static_cast<Stage>(clk.phases)), spines_(net.size()) {
    out_.net.set_name(net.name());
    out_.output_stage = pa.output_stage;
    out_.node_map.assign(net.size(), kNullNode);
  }

  PhysicalNetlist run() {
    for (const NodeId id : net_.topo_order()) {
      emit_node_(id);
    }
    for (std::size_t i = 0; i < net_.num_pos(); ++i) {
      const NodeId pin = driver_key(net_, net_.po(i));
      out_.net.add_po(feed_from_spine_(pin, pa_.output_stage), net_.po_name(i));
    }
    out_.num_dffs = out_.net.count_of(GateType::Dff);
    // Splitter accounting via the unified model's fanout rule (T1 ports are
    // readout paths, not splits), so the physical count and the logical
    // estimate can never disagree on what counts as a split.
    const std::vector<uint32_t> fanouts = splitter_fanouts(out_.net);
    for (NodeId id = 0; id < out_.net.size(); ++id) {
      if (!out_.net.is_dead(id) && fanouts[id] > 1) {
        out_.num_splitters += fanouts[id] - 1;
      }
    }
    return std::move(out_);
  }

private:
  /// Stage of a pin: T1 ports fire with their body.
  Stage stage_of_(NodeId orig) const {
    return pa_.stage[resolve_producer(net_, orig)];
  }

  NodeId new_with_stage_(NodeId id, Stage s) {
    if (out_.stage.size() <= id) {
      out_.stage.resize(id + 1, 0);
    }
    out_.stage[id] = s;
    return id;
  }

  /// i-th spine DFF of driver d (i = 0 is the driver itself).
  NodeId spine_(NodeId d, Stage i) {
    if (i == 0) {
      return out_.node_map[d];
    }
    auto& chain = spines_[d];
    while (static_cast<Stage>(chain.size()) < i) {
      const NodeId prev = chain.empty() ? out_.node_map[d] : chain.back();
      const Stage s = stage_of_(d) + n_ * (static_cast<Stage>(chain.size()) + 1);
      chain.push_back(new_with_stage_(out_.net.add_raw_gate(GateType::Dff, {prev}), s));
    }
    return chain[i - 1];
  }

  /// Element feeding a plain consumer clocked at \p sc from driver \p d.
  NodeId feed_from_spine_(NodeId d, Stage sc) {
    if (is_constant(net_.node(d).type)) {
      return out_.node_map[d];  // constants need no balancing
    }
    return spine_(d, clk_.dffs_on_edge(stage_of_(d), sc));
  }

  /// Element feeding a T1 input that must land at exactly stage \p t (eq. 5):
  /// the spine DFF the chain rides, then its dedicated landing DFF when \p t
  /// is off the spine (shared by every landing of d at t).
  NodeId feed_landing_(NodeId d, Stage t) {
    const Stage sd = stage_of_(d);
    if (t < sd) {
      throw std::logic_error("insert_dffs: landing stage precedes the producer");
    }
    const NodeId base = spine_(d, clk_.landing_spine(sd, t));
    if (!clk_.landing_dedicated(sd, t)) {
      return base;
    }
    const auto [it, fresh] = landings_.try_emplace({d, t}, kNullNode);
    if (fresh) {
      it->second = new_with_stage_(out_.net.add_raw_gate(GateType::Dff, {base}), t);
    }
    return it->second;
  }

  void emit_node_(NodeId id) {
    const Node& node = net_.node(id);
    switch (node.type) {
      case GateType::Pi: {
        // Preserve the interface name.
        std::size_t pi_index = 0;
        for (; pi_index < net_.num_pis(); ++pi_index) {
          if (net_.pi(pi_index) == id) break;
        }
        out_.node_map[id] =
            new_with_stage_(out_.net.add_pi(net_.pi_name(pi_index)), stage_of_(id));
        break;
      }
      case GateType::Const0:
        out_.node_map[id] = new_with_stage_(out_.net.get_const0(), 0);
        break;
      case GateType::Const1:
        out_.node_map[id] = new_with_stage_(out_.net.get_const1(), 0);
        break;
      case GateType::Buf:
        out_.node_map[id] = out_.node_map[driver_key(net_, node.fanin(0))];
        break;
      case GateType::T1Port: {
        const NodeId body_new = out_.node_map[node.fanin(0)];
        out_.node_map[id] = new_with_stage_(
            out_.net.add_t1_port(body_new, node.port), stage_of_(node.fanin(0)));
        break;
      }
      case GateType::T1: {
        // The landing slots plan_dffs prices (eq. 3).
        const auto slots = t1_slot_perm(net_, pa_.stage, id, clk_);
        std::vector<NodeId> feeds;
        for (unsigned i = 0; i < 3; ++i) {
          const NodeId pin = driver_key(net_, node.fanin(i));
          feeds.push_back(feed_landing_(pin, stage_of_(id) - slots[i]));
        }
        out_.node_map[id] = new_with_stage_(
            out_.net.add_t1(feeds[0], feeds[1], feeds[2]), stage_of_(id));
        break;
      }
      default: {
        std::vector<NodeId> feeds;
        for (uint8_t i = 0; i < node.num_fanins; ++i) {
          const NodeId pin = driver_key(net_, node.fanin(i));
          feeds.push_back(feed_from_spine_(pin, stage_of_(id)));
        }
        out_.node_map[id] =
            new_with_stage_(out_.net.add_raw_gate(node.type, feeds), stage_of_(id));
      }
    }
  }

  const Network& net_;
  const PhaseAssignment& pa_;
  MultiphaseConfig clk_;
  Stage n_;
  PhysicalNetlist out_;
  std::vector<std::vector<NodeId>> spines_;  ///< per driver pin: its DFF chain
  std::map<std::pair<NodeId, Stage>, NodeId> landings_;
};

}  // namespace

PhysicalNetlist insert_dffs(const Network& net, const PhaseAssignment& assignment,
                            const MultiphaseConfig& clk) {
  if (!assignment.feasible) {
    throw std::invalid_argument("insert_dffs: infeasible phase assignment");
  }
  Inserter inserter(net, assignment, clk);
  return inserter.run();
}

}  // namespace t1sfq
