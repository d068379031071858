#include "incr/schedule_refiner.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <limits>
#include <unordered_set>

#include "core/phase_assignment.hpp"

namespace t1sfq {

namespace {

constexpr Stage kInf = std::numeric_limits<Stage>::max() / 4;

// Refinement effort per rescued candidate. Two sweeps over at most 96 nodes
// within three fanin/fanout hops of the new body is what the schedule-aware
// guard was calibrated with (shrink-8 voter: 67 -> 92 T1 at +5 DFFs).
constexpr unsigned kRefineSweeps = 2;
constexpr unsigned kRefineRadius = 3;
constexpr std::size_t kMaxMovable = 96;

void sort_unique(std::vector<NodeId>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

/// Pins and T1 bodies whose plan quantities read stage(u): u's own pins (its
/// taps when u is a T1 body), its fanin pins, and every fanin pin of a T1
/// body u is or feeds (the slot permutation couples them).
void gather_scope(const IncrementalView& view, NodeId u, StageScope& scope) {
  const Network& net = view.net();
  scope.pins.clear();
  scope.t1s.clear();
  const auto add_t1 = [&](NodeId j) {
    scope.t1s.push_back(j);
    const Node& body = net.node(j);
    for (uint8_t i = 0; i < body.num_fanins; ++i) {
      scope.pins.push_back(body.fanin(i));
    }
  };
  const Node& node = net.node(u);
  if (node.type == GateType::T1) {
    for (const NodeId c : view.consumers(u)) {
      if (net.node(c).type == GateType::T1Port) scope.pins.push_back(c);
    }
    add_t1(u);
  } else {
    scope.pins.push_back(u);
  }
  for (uint8_t i = 0; i < node.num_fanins; ++i) {
    scope.pins.push_back(node.fanin(i));
  }
  for_each_timed_consumer(view, u, [&](NodeId c) {
    if (c != kNullNode && net.node(c).type == GateType::T1) add_t1(c);
  });
  sort_unique(scope.pins);
  sort_unique(scope.t1s);
}

}  // namespace

Stage stage_upper_bound(const IncrementalView& view, const std::vector<Stage>& stage,
                        Stage sink, NodeId u) {
  const Network& net = view.net();
  Stage hi = kInf;
  for_each_timed_consumer(view, u, [&](NodeId c) {
    if (c == kNullNode) {
      hi = std::min(hi, sink - 1);
    } else if (net.node(c).type == GateType::T1) {
      hi = std::min(hi, sched_t1_max_input_stage(net, stage, c, u));
    } else {
      hi = std::min(hi, stage[c] - 1);
    }
  });
  return hi >= kInf ? sink - 1 : hi;
}

bool descend_stage(const IncrementalView& view, std::vector<Stage>& stage, Stage sink,
                   NodeId u, StageScope& scope) {
  const Network& net = view.net();
  const Stage n = static_cast<Stage>(view.model().clk().phases);
  const Stage lo = sched_local_lower_bound(net, stage, u);
  const Stage hi = stage_upper_bound(view, stage, sink, u);
  if (hi <= lo) {
    return false;
  }

  gather_scope(view, u, scope);
  // With no T1 in scope (u is no body and feeds none), every spine u's stage
  // enters is priced from quantities fixed for the whole window: u's own
  // spine spans the edge to its latest timed consumer (dffs_on_edge grows
  // with the consumer stage), and each fanin pin's spine is the larger of
  // u's edge and the spine of its other consumers.
  const bool plain = scope.t1s.empty();
  Stage own_latest = -kInf;  // no timed consumer: every edge prices 0
  std::array<std::pair<Stage, Stage>, 3> fanin_pins{};  // (pin stage, spine without u)
  std::size_t num_fanin_pins = 0;
  if (plain) {
    for_each_timed_consumer(view, u, [&](NodeId c) {
      own_latest = std::max(own_latest, c == kNullNode ? sink : stage[c]);
    });
    for (const NodeId p : scope.pins) {
      const GateType driver = net.node(resolve_producer(net, p)).type;
      if (p == u || driver == GateType::Const0 || driver == GateType::Const1) continue;
      assert(num_fanin_pins < fanin_pins.size());
      fanin_pins[num_fanin_pins++] = {stage[p], view.plan_spine_on(p, stage, sink, u)};
    }
  }
  const MultiphaseConfig& clk = view.model().clk();
  const auto scope_cost = [&] {
    int64_t c = 0;
    if (plain) {
      c += clk.dffs_on_edge(stage[u], own_latest);
      for (std::size_t i = 0; i < num_fanin_pins; ++i) {
        const auto [pin_stage, rest] = fanin_pins[i];
        c += std::max(rest, clk.dffs_on_edge(pin_stage, stage[u]));
      }
      return c;
    }
    for (const NodeId p : scope.pins) {
      c += view.plan_spine_on(p, stage, sink);
    }
    for (const NodeId j : scope.t1s) {
      c += view.t1_dedicated_on(j, stage);
    }
    return c;
  };
  const bool is_t1 = net.node(u).type == GateType::T1;
  const auto set_stage = [&](Stage x) {
    stage[u] = x;
    if (!is_t1) return;
    for (const NodeId c : view.consumers(u)) {
      if (net.node(c).type == GateType::T1Port) stage[c] = x;  // taps alias their body
    }
  };

  const Stage original = stage[u];
  Stage best_stage = original;
  int64_t best_cost = scope_cost();
  const auto try_range = [&](Stage from, Stage to) {
    for (Stage x = from; x <= to; ++x) {
      if (x == original) continue;
      set_stage(x);
      const int64_t c = scope_cost();
      if (c < best_cost) {
        best_cost = c;
        best_stage = x;
      }
    }
  };
  if (hi - lo <= 6 * n) {
    try_range(lo, hi);
  } else {
    try_range(lo, lo + 3 * n);
    try_range(hi - 3 * n, hi);
  }
  set_stage(best_stage);
  return best_stage != original;
}

int64_t refine_schedule(const IncrementalView& view, const std::vector<NodeId>& seeds) {
  const Network& net = view.net();

  // -- Movable set: clocked elements within kRefineRadius hops of the seeds.
  std::unordered_set<NodeId> movable;
  std::vector<NodeId> frontier;
  const auto try_add = [&](NodeId id, std::vector<NodeId>& next) {
    if (id == kNullNode || net.is_dead(id)) return;
    const GateType t = net.node(id).type;
    if (t == GateType::T1Port) {
      id = resolve_producer(net, id);  // move the body, not the tap
    }
    if (!is_clocked(net.node(id).type)) return;
    if (movable.size() >= kMaxMovable) return;
    if (movable.insert(id).second) {
      next.push_back(id);
    }
  };
  for (const NodeId s : seeds) {
    try_add(s, frontier);
  }
  for (unsigned hop = 0; hop < kRefineRadius && !frontier.empty(); ++hop) {
    std::vector<NodeId> next;
    for (const NodeId u : frontier) {
      const Node& node = net.node(u);
      for (uint8_t i = 0; i < node.num_fanins; ++i) {
        try_add(resolve_producer(net, node.fanin(i)), next);
      }
      const auto expand_consumers = [&](NodeId pin) {
        for (const NodeId c : view.consumers(pin)) {
          try_add(c, next);
        }
      };
      expand_consumers(u);
      for (const NodeId c : view.consumers(u)) {
        if (net.node(c).type == GateType::T1Port) {
          expand_consumers(c);  // the body's fanouts hang off its taps
        }
      }
    }
    frontier = std::move(next);
  }
  if (movable.empty()) {
    return view.planned_dffs();
  }

  // Scratch assignment seeded with the maintained ASAP stages.
  std::vector<Stage> scratch(net.size());
  for (NodeId id = 0; id < net.size(); ++id) {
    scratch[id] = view.stage(id);
  }
  std::vector<NodeId> order(movable.begin(), movable.end());
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return scratch[a] > scratch[b];  // deepest first, like the scheduler
  });

  const Stage sink = view.output_stage();
  StageScope scope;
  std::vector<NodeId> touched_pins;
  std::vector<NodeId> touched_t1s;
  for (unsigned sweep = 0; sweep < kRefineSweeps; ++sweep) {
    bool changed = false;
    for (const NodeId u : order) {
      if (!descend_stage(view, scratch, sink, u, scope)) continue;
      changed = true;
      touched_pins.insert(touched_pins.end(), scope.pins.begin(), scope.pins.end());
      touched_t1s.insert(touched_t1s.end(), scope.t1s.begin(), scope.t1s.end());
    }
    if (!changed) {
      break;
    }
  }
  sort_unique(touched_pins);
  sort_unique(touched_t1s);

  // Refined total: the maintained plan minus the touched pins' ASAP
  // contributions plus their contributions under the refined stages.
  int64_t total = view.planned_dffs();
  for (const NodeId p : touched_pins) {
    total += view.plan_spine_on(p, scratch, sink) - view.plan_spine(p);
  }
  for (const NodeId j : touched_t1s) {
    total += view.t1_dedicated_on(j, scratch) - view.t1_dedicated(j);
  }
  return total;
}

}  // namespace t1sfq
