#include "part/partitioner.hpp"

#include <utility>

#include "opt/pass.hpp"

namespace t1sfq {
namespace part {

std::vector<NodeId> cone_order(const Network& net) {
  std::vector<char> visited(net.size(), 0);
  std::vector<NodeId> order;
  order.reserve(net.size());
  // (node, next fanin slot) — iterative DFS post-order.
  std::vector<std::pair<NodeId, unsigned>> stack;

  const auto visit_root = [&](NodeId root) {
    if (root >= net.size() || visited[root] || net.is_dead(root)) {
      return;
    }
    visited[root] = 1;
    stack.emplace_back(root, 0u);
    while (!stack.empty()) {
      const NodeId id = stack.back().first;
      const Node& nd = net.node(id);
      unsigned& slot = stack.back().second;
      if (slot < nd.num_fanins) {
        const NodeId f = nd.fanins[slot];
        ++slot;
        if (!visited[f] && !net.is_dead(f)) {
          visited[f] = 1;
          stack.emplace_back(f, 0u);  // invalidates nd/slot; loop re-reads
        }
      } else {
        order.push_back(id);
        stack.pop_back();
      }
    }
  };

  for (const NodeId po : net.pos()) {
    visit_root(po);
  }
  for (NodeId id = 0; id < net.size(); ++id) {
    visit_root(id);  // live nodes unreachable from any PO
  }
  return order;
}

Partition partition_network(const Network& net, const PartitionParams& params) {
  Partition part;
  part.region_of.assign(net.size(), Partition::kNoRegion);

  const std::size_t max_region = params.max_region > 0 ? params.max_region : 1;
  std::size_t cap = params.first_region_cap > 0
                        ? std::min(params.first_region_cap, max_region)
                        : max_region;

  std::vector<NodeId> current;
  const auto flush = [&] {
    if (!current.empty()) {
      const uint32_t idx = static_cast<uint32_t>(part.regions.size());
      for (const NodeId m : current) {
        part.region_of[m] = idx;
      }
      Region r;
      r.members = std::move(current);
      current.clear();
      part.regions.push_back(std::move(r));
    }
    cap = max_region;
  };

  for (const NodeId id : cone_order(net)) {
    if (!is_logic_cell(net.node(id).type)) {
      // Fanin-less cells (PIs, constants) are transparent to the contiguity
      // argument; anything else (DFF, T1, T1Port, raw Buf) is a barrier.
      if (net.node(id).num_fanins > 0) {
        flush();
      }
      continue;
    }
    current.push_back(id);
    if (current.size() >= cap) {
      flush();
    }
  }
  flush();

  // Boundary outputs: a member is one iff it drives a PO or any live node
  // outside its region.
  std::vector<char> is_boundary(net.size(), 0);
  for (NodeId id = 0; id < net.size(); ++id) {
    if (net.is_dead(id)) {
      continue;
    }
    const Node& nd = net.node(id);
    const uint32_t rc = part.region_of[id];
    for (unsigned i = 0; i < nd.num_fanins; ++i) {
      const NodeId f = nd.fanins[i];
      const uint32_t rf = part.region_of[f];
      if (rf != Partition::kNoRegion && rf != rc) {
        is_boundary[f] = 1;
      }
    }
  }
  // Inputs (first-use order over the member list), one region at a time so
  // the dedup stamp for a node cannot be clobbered by another region between
  // two of its consumers here.
  std::vector<uint32_t> stamp(net.size(), Partition::kNoRegion);
  for (uint32_t rc = 0; rc < part.regions.size(); ++rc) {
    Region& r = part.regions[rc];
    for (const NodeId m : r.members) {
      const Node& nd = net.node(m);
      for (unsigned i = 0; i < nd.num_fanins; ++i) {
        const NodeId f = nd.fanins[i];
        if (part.region_of[f] != rc && stamp[f] != rc) {
          stamp[f] = rc;
          r.inputs.push_back(f);
        }
      }
    }
  }
  for (const NodeId po : net.pos()) {
    if (part.region_of[po] != Partition::kNoRegion) {
      is_boundary[po] = 1;
    }
  }
  for (Region& r : part.regions) {
    for (const NodeId m : r.members) {
      if (is_boundary[m]) {
        r.outputs.push_back(m);
      }
    }
    part.boundary_nodes += r.outputs.size();
  }
  return part;
}

}  // namespace part
}  // namespace t1sfq
