#include "cost/dff_plan.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

namespace t1sfq {

namespace {

constexpr int64_t kInf = std::numeric_limits<int64_t>::max() / 4;

}  // namespace

unsigned t1_slot_order(const std::array<Stage, 3>& sd, Stage sj, const MultiphaseConfig& clk,
                       int64_t* cost_out) {
  // landing[i][l]: DFFs that land fanin i in slot l + 1 (kInf before its
  // producer fires).
  std::array<std::array<int64_t, 3>, 3> landing;
  for (unsigned i = 0; i < 3; ++i) {
    for (unsigned l = 0; l < 3; ++l) {
      const Stage t = sj - static_cast<Stage>(l + 1);
      landing[i][l] = t < sd[i] ? kInf
                                : clk.landing_spine(sd[i], t) + clk.landing_dedicated(sd[i], t);
    }
  }
  unsigned best = 0;
  int64_t best_cost = kInf;
  for (unsigned k = 0; k < kT1SlotOrders.size(); ++k) {
    const std::array<int, 3>& slots = kT1SlotOrders[k];
    const int64_t a = landing[0][slots[0] - 1];
    const int64_t b = landing[1][slots[1] - 1];
    const int64_t c = landing[2][slots[2] - 1];
    const int64_t cost = a >= kInf || b >= kInf || c >= kInf ? kInf : a + b + c;
    if (cost < best_cost) {
      best_cost = cost;
      best = k;
    }
  }
  if (cost_out) {
    *cost_out = best_cost;
  }
  return best;
}

std::array<int, 3> t1_slot_perm(const Network& net, const std::vector<Stage>& stage,
                                NodeId t1, const MultiphaseConfig& clk, int64_t* cost_out) {
  const Node& body = net.node(t1);
  std::array<Stage, 3> sd;
  for (unsigned i = 0; i < 3; ++i) {
    sd[i] = stage[resolve_producer(net, body.fanin(i))];
  }
  return kT1SlotOrders[t1_slot_order(sd, stage[t1], clk, cost_out)];
}

NodeId resolve_producer(const Network& net, NodeId id) {
  NodeId cur = id;
  for (;;) {
    const Node& n = net.node(cur);
    if (n.type == GateType::T1Port || n.type == GateType::Buf) {
      cur = n.fanin(0);
    } else {
      return cur;
    }
  }
}

NodeId driver_key(const Network& net, NodeId id) {
  NodeId cur = id;
  while (net.node(cur).type == GateType::Buf) {
    cur = net.node(cur).fanin(0);
  }
  return cur;
}

int64_t InsertionPlan::total_dffs() const {
  int64_t total = dedicated_landings;
  for (const Stage s : spine_len) {
    total += s;
  }
  return total;
}

InsertionPlan plan_dffs(const Network& net, const std::vector<Stage>& stage,
                        Stage output_stage, const MultiphaseConfig& clk) {
  InsertionPlan plan;
  plan.spine_len.assign(net.size(), 0);

  // Spines are indexed by the physical pin (driver_key): two ports of the
  // same T1 body carry different signals and never share a chain. A spine is
  // a maximum over edges, so any order of the live nodes gives the plan.
  const auto constant = [&](NodeId key) {
    return is_constant(net.node(resolve_producer(net, key)).type);
  };
  const auto raise_spine = [&](NodeId key, Stage req) {
    plan.spine_len[key] = std::max(plan.spine_len[key], req);
  };
  const auto stage_of = [&](NodeId key) { return stage[resolve_producer(net, key)]; };

  for (NodeId id = 0; id < net.size(); ++id) {
    const Node& node = net.node(id);
    if (node.dead) continue;
    if (node.type == GateType::T1) {
      int64_t cost = 0;
      const auto slots = t1_slot_perm(net, stage, id, clk, &cost);
      assert(cost < kInf && "infeasible T1 slot assignment");
      for (unsigned i = 0; i < 3; ++i) {
        const NodeId key = driver_key(net, node.fanin(i));
        if (constant(key)) continue;
        const Stage sd = stage_of(key);
        const Stage t = stage[id] - slots[i];
        raise_spine(key, clk.landing_spine(sd, t));
        plan.dedicated_landings += clk.landing_dedicated(sd, t);
      }
    } else if (is_clocked(node.type)) {
      for (uint8_t i = 0; i < node.num_fanins; ++i) {
        const NodeId key = driver_key(net, node.fanin(i));
        if (!constant(key)) {
          raise_spine(key, clk.dffs_on_edge(stage_of(key), stage[id]));
        }
      }
    }
  }
  for (const NodeId po : net.pos()) {
    const NodeId key = driver_key(net, po);
    if (!constant(key)) {
      raise_spine(key, clk.dffs_on_edge(stage_of(key), output_stage));
    }
  }
  return plan;
}

bool assignment_feasible(const Network& net, const std::vector<Stage>& stage,
                         Stage output_stage, const MultiphaseConfig& clk) {
  const auto late_enough = [&](NodeId fanin, Stage at) {
    const NodeId d = resolve_producer(net, fanin);
    return is_constant(net.node(d).type) || at >= stage[d] + 1;
  };
  for (NodeId id = 0; id < net.size(); ++id) {
    const Node& node = net.node(id);
    if (node.dead) continue;
    if (node.type == GateType::T1) {
      if (clk.phases < 4) {
        return false;  // slots {1,2,3} need gap <= n-1 on the landing hop
      }
      std::array<Stage, 3> s;
      for (unsigned i = 0; i < 3; ++i) {
        const NodeId d = resolve_producer(net, node.fanin(i));
        if (is_constant(net.node(d).type)) {
          return false;  // constant pulses into the loop are not supported
        }
        s[i] = stage[d];
      }
      if (stage[id] < t1_body_stage(s[0], s[1], s[2])) {
        return false;
      }
    } else if (is_clocked(node.type)) {
      if (stage[id] < 0) {
        return false;
      }
      for (uint8_t i = 0; i < node.num_fanins; ++i) {
        if (!late_enough(node.fanin(i), stage[id])) {
          return false;
        }
      }
    }
  }
  for (const NodeId po : net.pos()) {
    if (!late_enough(po, output_stage)) {
      return false;
    }
  }
  return true;
}

}  // namespace t1sfq
