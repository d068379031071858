#include "cost/cost_model.hpp"

#include <algorithm>

#include "core/phase_assignment.hpp"

namespace t1sfq {

int64_t CostModel::cone_jj(const Network& net, const std::vector<NodeId>& cone) const {
  int64_t jj = 0;
  for (const NodeId id : cone) {
    const Node& n = net.node(id);
    jj += cell_jj(n.type, n.port);
  }
  return jj;
}

uint64_t CostModel::signature() const {
  uint64_t h = 14695981039346656037ULL;
  h = fnv64_mix(h, lib_.jj_buf);
  h = fnv64_mix(h, lib_.jj_not);
  h = fnv64_mix(h, lib_.jj_and2);
  h = fnv64_mix(h, lib_.jj_or2);
  h = fnv64_mix(h, lib_.jj_xor2);
  h = fnv64_mix(h, lib_.jj_nand2);
  h = fnv64_mix(h, lib_.jj_nor2);
  h = fnv64_mix(h, lib_.jj_xnor2);
  h = fnv64_mix(h, lib_.jj_and3);
  h = fnv64_mix(h, lib_.jj_or3);
  h = fnv64_mix(h, lib_.jj_xor3);
  h = fnv64_mix(h, lib_.jj_maj3);
  h = fnv64_mix(h, lib_.jj_dff);
  h = fnv64_mix(h, lib_.jj_splitter);
  h = fnv64_mix(h, lib_.jj_t1);
  h = fnv64_mix(h, lib_.jj_t1_inverter);
  h = fnv64_mix(h, area_.count_splitters ? 1 : 0);
  h = fnv64_mix(h, area_.clock_jj_per_clocked);
  h = fnv64_mix(h, clk_.phases);
  return h;
}

std::vector<Stage> asap_stages(const Network& net, Stage* output_stage_out) {
  std::vector<Stage> stage(net.size(), 0);
  for (const NodeId id : net.topo_order()) {
    const Node& n = net.node(id);
    switch (n.type) {
      case GateType::Const0:
      case GateType::Const1:
      case GateType::Pi:
        stage[id] = 0;
        break;
      case GateType::Buf:
      case GateType::T1Port:
        stage[id] = stage[n.fanin(0)];
        break;
      case GateType::T1: {
        // Paper eq. 3: the three inputs need three distinct landing slots.
        std::array<Stage, 3> s;
        for (unsigned i = 0; i < 3; ++i) {
          s[i] = stage[resolve_producer(net, n.fanin(i))];
        }
        std::sort(s.begin(), s.end());
        stage[id] = std::max({s[0] + 3, s[1] + 2, s[2] + 1});
        break;
      }
      default: {
        Stage m = 0;
        for (uint8_t i = 0; i < n.num_fanins; ++i) {
          m = std::max(m, stage[resolve_producer(net, n.fanin(i))]);
        }
        stage[id] = m + 1;
      }
    }
  }
  Stage output_stage = 1;
  for (const NodeId po : net.pos()) {
    output_stage = std::max(output_stage, stage[resolve_producer(net, po)] + 1);
  }
  if (output_stage_out) {
    *output_stage_out = output_stage;
  }
  return stage;
}

std::vector<uint32_t> splitter_fanouts(const Network& net) {
  std::vector<uint32_t> counts(net.size(), 0);
  for (NodeId id = 0; id < net.size(); ++id) {
    const Node& n = net.node(id);
    if (n.dead || n.type == GateType::T1Port) continue;
    for (uint8_t i = 0; i < n.num_fanins; ++i) {
      ++counts[n.fanin(i)];
    }
  }
  for (const NodeId po : net.pos()) {
    ++counts[po];
  }
  return counts;
}

JJBreakdown CostModel::network_breakdown(const Network& net, Stage* output_stage_out,
                                         int64_t* planned_dffs_out) const {
  JJBreakdown b;
  std::size_t clocked = 0;
  for (NodeId id = 0; id < net.size(); ++id) {
    const Node& n = net.node(id);
    if (n.dead) continue;
    if (n.type == GateType::Dff) {
      b.dff += lib_.jj_dff;
    } else {
      b.logic += lib_.jj_cost(n.type, n.port);
    }
    if (is_clocked(n.type)) {
      ++clocked;
    }
  }
  if (area_.count_splitters) {
    const auto fanouts = splitter_fanouts(net);
    for (NodeId id = 0; id < net.size(); ++id) {
      if (!net.is_dead(id) && fanouts[id] > 1) {
        b.splitter += static_cast<uint64_t>(fanouts[id] - 1) * lib_.jj_splitter;
      }
    }
  }
  // Shared-spine estimate of the balancing DFFs an insertion would add, under
  // legal ASAP stages (the objective the optimization layers minimize).
  Stage output_stage = 1;
  const std::vector<Stage> stage = asap_stages(net, &output_stage);
  const int64_t planned = plan_dffs(net, stage, output_stage, clk_).total_dffs();
  b.dff += static_cast<uint64_t>(planned) * lib_.jj_dff;
  clocked += static_cast<std::size_t>(planned);
  b.clock = static_cast<uint64_t>(clocked) * area_.clock_jj_per_clocked;
  if (output_stage_out) {
    *output_stage_out = output_stage;
  }
  if (planned_dffs_out) {
    *planned_dffs_out = planned;
  }
  return b;
}

JJBreakdown CostModel::physical_breakdown(const Network& physical_net,
                                          std::size_t num_splitters) const {
  JJBreakdown b;
  std::size_t clocked = 0;
  for (NodeId id = 0; id < physical_net.size(); ++id) {
    const Node& n = physical_net.node(id);
    if (n.dead) continue;
    if (n.type == GateType::Dff) {
      b.dff += lib_.jj_dff;
    } else {
      b.logic += lib_.jj_cost(n.type, n.port);
    }
    if (is_clocked(n.type)) {
      ++clocked;
    }
  }
  if (area_.count_splitters) {
    b.splitter = static_cast<uint64_t>(num_splitters) * lib_.jj_splitter;
  }
  b.clock = static_cast<uint64_t>(clocked) * area_.clock_jj_per_clocked;
  return b;
}

}  // namespace t1sfq
