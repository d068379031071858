#include "network/mffc.hpp"

#include <algorithm>

namespace t1sfq {

std::vector<NodeId> mffc(const Network& net, NodeId root,
                         const std::vector<uint32_t>& fanout_counts,
                         const std::vector<NodeId>& leaves) {
  const Node& r = net.node(root);
  if (r.type == GateType::Pi || r.type == GateType::Const0 || r.type == GateType::Const1) {
    return {};
  }
  if (std::find(leaves.begin(), leaves.end(), root) != leaves.end()) {
    return {};
  }

  // References released so far, per node, in scratch that holds zeros
  // between calls: the walk touches only the counts it reaches and resets
  // them before returning, so a call costs its cone, not the network. One
  // copy per thread, because partition shards run optimize() concurrently.
  thread_local std::vector<uint32_t> released;
  thread_local std::vector<NodeId> touched;
  if (released.size() < fanout_counts.size()) {
    released.resize(fanout_counts.size(), 0);
  }
  std::vector<NodeId> cone;
  std::vector<NodeId> stack{root};
  cone.push_back(root);

  const auto is_boundary = [&](NodeId id) {
    const Node& n = net.node(id);
    if (n.type == GateType::Pi || n.type == GateType::Const0 || n.type == GateType::Const1) {
      return true;
    }
    return std::find(leaves.begin(), leaves.end(), id) != leaves.end();
  };

  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    const Node& n = net.node(id);
    for (uint8_t i = 0; i < n.num_fanins; ++i) {
      const NodeId f = n.fanin(i);
      if (is_boundary(f)) {
        continue;
      }
      if (released[f]++ == 0) {
        touched.push_back(f);
      }
      if (released[f] == fanout_counts[f]) {
        cone.push_back(f);
        stack.push_back(f);
      }
    }
  }
  for (const NodeId id : touched) {
    released[id] = 0;
  }
  touched.clear();
  return cone;
}

}  // namespace t1sfq
