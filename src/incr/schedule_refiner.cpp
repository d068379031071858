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

bool is_constant(const Network& net, NodeId id) {
  const GateType t = net.node(id).type;
  return t == GateType::Const0 || t == GateType::Const1;
}

/// Fills the pricing buffers of \p scope for a move of \p u: each scope
/// body's fixed producer stages, each non-constant scope pin's fixed part
/// (`StageScope::Pin::base`) and whether it feeds u, and the landing edges
/// into scope bodies. A T1 body outside the scope is neither u nor fed by
/// u, so its slot order, and every landing edge into it, is fixed for the
/// whole call.
void price_fixed(const IncrementalView& view, const std::vector<Stage>& stage, Stage sink,
                 NodeId u, StageScope& scope) {
  const Network& net = view.net();
  const MultiphaseConfig& clk = view.model().clk();
  const Stage n = static_cast<Stage>(clk.phases);
  scope.bodies.clear();
  scope.priced.clear();
  scope.edges.clear();
  for (const NodeId j : scope.t1s) {
    StageScope::Body b;
    b.id = j;
    b.is_u = j == u;
    const Node& body = net.node(j);
    for (unsigned i = 0; i < 3; ++i) {
      const NodeId d = resolve_producer(net, body.fanin(i));
      b.producer[i] = stage[d];
      b.from_u[i] = d == u;
      b.constant[i] = is_constant(net, d);
    }
    scope.bodies.push_back(b);
  }
  for (const NodeId p : scope.pins) {
    const NodeId producer = resolve_producer(net, p);
    if (is_constant(net, producer)) continue;  // a constant needs no spine
    StageScope::Pin pin;
    pin.owned = producer == u;
    pin.stage = stage[p];
    pin.base = pin.owned ? -kInf : 0;  // no consumer: the owned spine prices 0
    const uint32_t index = static_cast<uint32_t>(scope.priced.size());
    for (const NodeId c : view.consumers(p)) {
      const Node& cn = net.node(c);
      if (cn.type == GateType::T1) {
        const auto it = std::lower_bound(scope.t1s.begin(), scope.t1s.end(), c);
        if (it != scope.t1s.end() && *it == c) {
          const auto body = static_cast<uint32_t>(it - scope.t1s.begin());
          for (uint32_t i = 0; i < 3; ++i) {
            if (cn.fanin(i) == p) scope.edges.push_back({index, body, i});
          }
          continue;
        }
        assert(!pin.owned && "every T1 fed by u is in its scope");
        const auto slots = t1_slot_perm(net, stage, c, n);
        for (unsigned i = 0; i < 3; ++i) {
          const Stage t = stage[c] - slots[i];
          if (cn.fanin(i) == p && t > pin.stage) {
            pin.base = std::max(pin.base, (t - pin.stage) / n);
          }
        }
      } else if (is_clocked(cn.type)) {
        if (pin.owned) {
          pin.base = std::max(pin.base, stage[c]);
        } else if (c == u) {
          pin.feeds_u = true;
        } else {
          pin.base = std::max(pin.base, clk.dffs_on_edge(pin.stage, stage[c]));
        }
      }
    }
    if (view.is_po(p)) {
      pin.base = pin.owned ? std::max(pin.base, sink)
                           : std::max(pin.base, clk.dffs_on_edge(pin.stage, sink));
    }
    scope.priced.push_back(pin);
  }
}

/// The scope's plan cost with u at stage \p x: exactly the sum of
/// `plan_spine_on` over the scope pins and `t1_dedicated_on` over the scope
/// bodies on \p stage with u (and its taps) moved to x. With \p as_is the
/// pins u owns keep their stages in \p stage instead: the price of the
/// assignment as it stands, which for a T1 body whose taps are not aliased
/// to it differs from moving u and its taps to u's own stage.
int64_t price_candidate(const IncrementalView& view, const std::vector<Stage>& stage,
                        Stage x, bool as_is, StageScope& scope) {
  const MultiphaseConfig& clk = view.model().clk();
  const Stage n = static_cast<Stage>(clk.phases);
  int64_t cost = 0;
  for (StageScope::Body& b : scope.bodies) {
    std::array<Stage, 3> sd;
    for (unsigned i = 0; i < 3; ++i) {
      sd[i] = b.from_u[i] ? x : b.producer[i];
    }
    const Stage sj = b.is_u ? x : stage[b.id];
    b.order = t1_slot_order(sd, sj, n);
    const std::array<int, 3>& slots = kT1SlotOrders[b.order];
    for (unsigned i = 0; i < 3; ++i) {
      const Stage t = sj - slots[i];
      if (!b.constant[i] && t > sd[i] && (t - sd[i]) % n != 0) {
        ++cost;  // a dedicated landing DFF
      }
    }
  }
  // Plain edges: the owned pins' latest consumer, the edges into u.
  for (StageScope::Pin& p : scope.priced) {
    if (p.owned) {
      if (!as_is) p.stage = x;
      p.req = clk.dffs_on_edge(p.stage, p.base);
    } else {
      p.req = p.feeds_u ? std::max(p.base, clk.dffs_on_edge(p.stage, x)) : p.base;
    }
  }
  // Landing edges into the scope bodies, at their current slot orders.
  for (const StageScope::Edge& e : scope.edges) {
    StageScope::Pin& p = scope.priced[e.pin];
    const StageScope::Body& b = scope.bodies[e.body];
    const Stage t = (b.is_u ? x : stage[b.id]) - kT1SlotOrders[b.order][e.slot];
    if (t > p.stage) {
      p.req = std::max(p.req, (t - p.stage) / n);  // the chain rides/extends the spine
    }
  }
  for (const StageScope::Pin& p : scope.priced) {
    cost += p.req;
  }
  return cost;
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
  price_fixed(view, stage, sink, u, scope);
  const Stage original = stage[u];
  Stage best_stage = original;
  int64_t best_cost = price_candidate(view, stage, original, /*as_is=*/true, scope);
  const auto try_range = [&](Stage from, Stage to) {
    for (Stage x = from; x <= to; ++x) {
      if (x == original) continue;
      const int64_t c = price_candidate(view, stage, x, /*as_is=*/false, scope);
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
  stage[u] = best_stage;
  if (net.node(u).type == GateType::T1) {
    for (const NodeId c : view.consumers(u)) {
      if (net.node(c).type == GateType::T1Port) stage[c] = best_stage;  // taps alias their body
    }
  }
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
