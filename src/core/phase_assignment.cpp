#include "core/phase_assignment.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "incr/incremental_view.hpp"
#include "incr/schedule_refiner.hpp"
#include "obs/metrics.hpp"
#include "solver/milp.hpp"

namespace t1sfq {

namespace {

constexpr int64_t kInf = std::numeric_limits<int64_t>::max() / 4;

bool is_scheduled(GateType t) { return is_clocked(t); }

bool is_const(const Network& net, NodeId id) {
  const GateType t = net.node(id).type;
  return t == GateType::Const0 || t == GateType::Const1;
}

/// DFFs on a dedicated chain from a producer at \p sd to an exact landing
/// stage \p t (T1 input slots); kInf when infeasible.
int64_t landing_chain_cost(Stage sd, Stage t, Stage n) {
  if (t < sd) {
    return kInf;
  }
  if (t == sd) {
    return 0;
  }
  const Stage gap = t - sd;
  return gap % n == 0 ? gap / n : gap / n + 1;
}

}  // namespace

unsigned t1_slot_order(const std::array<Stage, 3>& sd, Stage sj, Stage n,
                       int64_t* cost_out) {
  // landing[i][l]: DFFs that land fanin i in slot l + 1.
  std::array<std::array<int64_t, 3>, 3> landing;
  for (unsigned i = 0; i < 3; ++i) {
    for (unsigned l = 0; l < 3; ++l) {
      landing[i][l] = landing_chain_cost(sd[i], sj - static_cast<Stage>(l + 1), n);
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
                                NodeId t1, Stage n, int64_t* cost_out) {
  const Node& body = net.node(t1);
  std::array<Stage, 3> sd;
  for (unsigned i = 0; i < 3; ++i) {
    sd[i] = stage[resolve_producer(net, body.fanin(i))];
  }
  return kT1SlotOrders[t1_slot_order(sd, stage[t1], n, cost_out)];
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
  const Stage n = static_cast<Stage>(clk.phases);

  // Spines are indexed by the physical pin (driver_key): two ports of the
  // same T1 body carry different signals and never share a chain.
  const auto raise_spine = [&](NodeId key, Stage req) {
    if (!is_const(net, resolve_producer(net, key))) {
      plan.spine_len[key] = std::max(plan.spine_len[key], req);
    }
  };
  const auto stage_of = [&](NodeId key) { return stage[resolve_producer(net, key)]; };

  for (const NodeId id : net.topo_order()) {
    const Node& node = net.node(id);
    if (node.type == GateType::T1) {
      int64_t cost = 0;
      const auto slots = t1_slot_perm(net, stage, id, n, &cost);
      assert(cost < kInf && "infeasible T1 slot assignment");
      plan.t1_slots[id] = slots;
      for (unsigned i = 0; i < 3; ++i) {
        const NodeId key = driver_key(net, node.fanin(i));
        const Stage sd = stage_of(key);
        const Stage t = stage[id] - slots[i];
        if (t == sd || is_const(net, resolve_producer(net, key))) {
          continue;
        }
        const Stage gap = t - sd;
        if (gap % n == 0) {
          raise_spine(key, gap / n);
        } else {
          raise_spine(key, gap / n);
          ++plan.dedicated_landings;
        }
      }
    } else if (is_scheduled(node.type)) {
      for (uint8_t i = 0; i < node.num_fanins; ++i) {
        const NodeId key = driver_key(net, node.fanin(i));
        raise_spine(key, clk.dffs_on_edge(stage_of(key), stage[id]));
      }
    }
  }
  for (const NodeId po : net.pos()) {
    const NodeId key = driver_key(net, po);
    raise_spine(key, clk.dffs_on_edge(stage_of(key), output_stage));
  }
  return plan;
}

bool assignment_feasible(const Network& net, const std::vector<Stage>& stage,
                         Stage output_stage, const MultiphaseConfig& clk) {
  const Stage n = static_cast<Stage>(clk.phases);
  for (const NodeId id : net.topo_order()) {
    const Node& node = net.node(id);
    if (node.type == GateType::T1) {
      if (n < 4) {
        return false;  // slots {1,2,3} need gap <= n-1 on the landing hop
      }
      std::array<Stage, 3> s;
      for (unsigned i = 0; i < 3; ++i) {
        const NodeId d = resolve_producer(net, node.fanin(i));
        if (is_const(net, d)) {
          return false;  // constant pulses into the loop are not supported
        }
        s[i] = stage[d];
      }
      std::sort(s.begin(), s.end());
      // Paper eq. 3.
      if (stage[id] < std::max({s[0] + 3, s[1] + 2, s[2] + 1})) {
        return false;
      }
    } else if (is_scheduled(node.type)) {
      if (stage[id] < 0) {
        return false;
      }
      for (uint8_t i = 0; i < node.num_fanins; ++i) {
        const NodeId d = resolve_producer(net, node.fanin(i));
        if (!is_const(net, d) && stage[id] < stage[d] + 1) {
          return false;
        }
      }
    }
  }
  for (const NodeId po : net.pos()) {
    const NodeId d = resolve_producer(net, po);
    if (!is_const(net, d) && output_stage < stage[d] + 1) {
      return false;
    }
  }
  return true;
}

Stage sched_local_lower_bound(const Network& net, const std::vector<Stage>& stage,
                              NodeId u) {
  const Node& node = net.node(u);
  if (node.type == GateType::T1) {
    std::array<Stage, 3> s;
    for (unsigned i = 0; i < 3; ++i) {
      s[i] = stage[resolve_producer(net, node.fanin(i))];
    }
    std::sort(s.begin(), s.end());
    return std::max({s[0] + 3, s[1] + 2, s[2] + 1});
  }
  Stage lo = 0;
  for (uint8_t i = 0; i < node.num_fanins; ++i) {
    const NodeId d = resolve_producer(net, node.fanin(i));
    if (!is_const(net, d)) {
      lo = std::max(lo, stage[d] + 1);
    }
  }
  return lo;
}

Stage sched_t1_max_input_stage(const Network& net, const std::vector<Stage>& stage,
                               NodeId j, NodeId u) {
  const Node& body = net.node(j);
  // Stages of the fanins u does not drive; unused entries sort last.
  std::array<Stage, 4> others;
  others.fill(std::numeric_limits<Stage>::max());
  std::size_t num_others = 0;
  for (unsigned i = 0; i < 3; ++i) {
    const NodeId d = resolve_producer(net, body.fanin(i));
    if (d != u) {
      others[num_others++] = stage[d];
    }
  }
  const Stage sj = stage[j];
  const auto feasible = [&](Stage x) {
    std::array<Stage, 4> s = others;
    // x joins once, and pads the fanins u drives up to three.
    for (std::size_t k = num_others; k < std::max<std::size_t>(num_others + 1, 3); ++k) {
      s[k] = x;
    }
    std::sort(s.begin(), s.end());
    return sj >= std::max({s[0] + 3, s[1] + 2, s[2] + 1});
  };
  for (Stage x = sj - 1; x >= sj - 3; --x) {
    if (feasible(x)) {
      return x;
    }
  }
  return sj - 3;  // always feasible as the smallest slot candidate
}

namespace {

/// Coordinate-descent sweeps of the heuristic scheduler (it stops earlier at
/// a fixed point).
constexpr unsigned kMaxSweeps = 12;
/// Branch-and-bound node budget of the exact engine; on exhaustion the
/// heuristic assignment is kept.
constexpr uint64_t kMilpMaxNodes = 20000;

PhaseAssignment heuristic_assign(const IncrementalView& view,
                                 const PhaseAssignmentParams& params) {
  const Network& net = view.net();
  const MultiphaseConfig& clk = view.model().clk();
  PhaseAssignment pa;
  // ASAP seed: the view's maintained stages (T1 taps already alias their
  // body, as the descent keeps them).
  pa.stage.resize(net.size());
  for (NodeId id = 0; id < net.size(); ++id) {
    pa.stage[id] = view.stage(id);
  }
  Stage out = 0;
  for (const NodeId po : net.pos()) {
    out = std::max(out, pa.stage[po] + 1);
  }
  out += params.output_slack;
  pa.output_stage = out;
  pa.feasible = assignment_feasible(net, pa.stage, out, clk);
  if (!pa.feasible) {
    pa.estimated_dffs = -1;
    return pa;
  }

  auto order = net.topo_order();
  std::reverse(order.begin(), order.end());

  // -- Incremental sweep machinery (identical schedules, less work). ---------
  //
  // A node's evaluation is deterministic in the stages it reads (its move
  // window and the spines/dedicated counts of its cost scope). The full sweep
  // re-runs every evaluation every pass; here a node is evaluated only while
  // `dirty` — seeded by slack for the first sweep, then by exactly the
  // committed moves whose stage enters the node's read set. Within a sweep
  // the fixed reverse-topo order means a move can only dirty nodes that are
  // either later in the current pass (evaluated this pass, as the full sweep
  // would) or earlier (evaluated next pass, as the full sweep would).
  const bool incr = params.incremental;
  std::vector<char> dirty;
  const auto mark = [&](NodeId v) {
    if (v != kNullNode && is_scheduled(net.node(v).type)) {
      dirty[v] = 1;
    }
  };
  const auto for_each_t1_driver = [&](NodeId t1, const auto& f) {
    const Node& b = net.node(t1);
    for (unsigned i = 0; i < 3; ++i) {
      f(resolve_producer(net, b.fanin(i)));
    }
  };
  // Everyone whose cost evaluation reads the spines of d's pins: d itself,
  // the consumers of those pins, and — where a pin feeds a T1 — the slot
  // permutation's co-drivers.
  const auto mark_spine_readers = [&](NodeId d) {
    mark(d);
    for_each_timed_consumer(view, d, [&](NodeId c) {
      mark(c);
      if (c != kNullNode && net.node(c).type == GateType::T1) {
        for_each_t1_driver(c, mark);
      }
    });
  };
  // Over-approximation of "whose evaluation reads stage[w]": w's window
  // bounds enter its producers and consumers; w's stage enters the spines of
  // its producers' pins and (through eq.-3 slot permutations) of every
  // driver of a T1 it feeds.
  const auto mark_affected = [&](NodeId w) {
    mark(w);
    const Node& node = net.node(w);
    for (uint8_t i = 0; i < node.num_fanins; ++i) {
      mark_spine_readers(resolve_producer(net, node.fanin(i)));
    }
    for_each_timed_consumer(view, w, [&](NodeId c) {
      mark(c);
      if (c != kNullNode && net.node(c).type == GateType::T1) {
        for_each_t1_driver(c, mark_spine_readers);
      }
    });
  };
  if (incr) {
    dirty.assign(net.size(), 0);
    // First sweep: at output_slack 0 only nodes whose slack window (the
    // view's conservative eq.-3-aware ALAP − ASAP) is open; a zero-slack
    // node's window is provably empty until a neighbour's committed move
    // re-opens it. A later sink opens windows the view's ALAP does not
    // see, so with slack every node starts dirty, as in the full sweep.
    const std::vector<Stage>* alap =
        params.output_slack == 0 ? &view.alap_stages() : nullptr;
    for (const NodeId u : order) {
      if (!is_scheduled(net.node(u).type)) continue;
      if (alap == nullptr || (*alap)[u] > pa.stage[u]) {
        dirty[u] = 1;
        continue;
      }
      // The ALAP bounds a T1 input by the smallest landing slot (−3) where
      // eq. 3 grants up to slot −1: check such windows exactly.
      bool coupled = false;
      for_each_timed_consumer(view, u, [&](NodeId c) {
        coupled |= c != kNullNode && net.node(c).type == GateType::T1;
      });
      if (coupled && stage_upper_bound(view, pa.stage, out, u) > pa.stage[u]) {
        dirty[u] = 1;
      }
    }
  }

  // Sweep counters: plain locals, flushed to the obs registry once at the end
  // (the inner loop is the scheduler's hot path).
  uint64_t sweeps_run = 0;
  uint64_t nodes_evaluated = 0;
  uint64_t nodes_skipped = 0;
  uint64_t moves_committed = 0;
  StageScope scope;
  for (unsigned sweep = 0; sweep < kMaxSweeps; ++sweep) {
    bool changed = false;
    ++sweeps_run;
    for (const NodeId u : order) {
      if (!is_scheduled(net.node(u).type)) continue;
      if (incr) {
        if (!dirty[u]) {
          ++nodes_skipped;
          continue;
        }
        dirty[u] = 0;
      }
      ++nodes_evaluated;
      if (descend_stage(view, pa.stage, out, u, scope)) {
        changed = true;
        ++moves_committed;
        if (incr) {
          mark_affected(u);
        }
      }
    }
    if (!changed) {
      break;
    }
  }
  obs::count("sched.sweeps", sweeps_run);
  obs::count("sched.nodes_evaluated", nodes_evaluated);
  obs::count("sched.nodes_skipped", nodes_skipped);
  obs::count("sched.moves_committed", moves_committed);

  assert(assignment_feasible(net, pa.stage, out, clk));
  pa.estimated_dffs = plan_dffs(net, pa.stage, out, clk).total_dffs();
  return pa;
}

PhaseAssignment milp_assign(const IncrementalView& view,
                            const PhaseAssignmentParams& params) {
  // Seed with the heuristic: it fixes the output stage and provides bounds
  // and a fallback result.
  PhaseAssignment seed = heuristic_assign(view, params);
  if (!seed.feasible) {
    return seed;
  }
  const Network& net = view.net();
  const MultiphaseConfig& clk = view.model().clk();
  const Stage out = seed.output_stage;
  const Stage n = static_cast<Stage>(clk.phases);

  LinearProgram lp;
  std::vector<int> var(net.size(), -1);
  std::vector<int> integer_vars;
  for (const NodeId id : net.topo_order()) {
    if (is_scheduled(net.node(id).type)) {
      var[id] = lp.add_variable(static_cast<double>(view.stage(id)),
                                static_cast<double>(out - 1), 0.0);
      integer_vars.push_back(var[id]);
    }
  }
  const auto stage_term = [&](NodeId d) -> std::pair<int, double> {
    // Returns (var index or -1, constant) for a producer's stage.
    if (var[d] >= 0) {
      return {var[d], 0.0};
    }
    return {-1, 0.0};  // PIs and constants sit at stage 0
  };

  // One m_d per physical pin with consumers.
  std::vector<int> m_var(net.size(), -1);
  for (NodeId d = 0; d < net.size(); ++d) {
    if (!view.plan_consumers(d).empty() && !is_const(net, resolve_producer(net, d))) {
      m_var[d] = lp.add_variable(0.0, static_cast<double>(out), 1.0);
      integer_vars.push_back(m_var[d]);
    }
  }

  for (const NodeId id : net.topo_order()) {
    const Node& node = net.node(id);
    if (!is_scheduled(node.type)) continue;
    if (node.type == GateType::T1) {
      // Assignment binaries y[i][l]: fanin i takes slot l+1.
      int y[3][3];
      for (int i = 0; i < 3; ++i) {
        for (int l = 0; l < 3; ++l) {
          y[i][l] = lp.add_variable(0.0, 1.0, 0.0);
          integer_vars.push_back(y[i][l]);
        }
      }
      for (int i = 0; i < 3; ++i) {
        std::vector<std::pair<int, double>> row{{y[i][0], 1.0}, {y[i][1], 1.0}, {y[i][2], 1.0}};
        lp.add_row(row, 1.0, 1.0);
      }
      for (int l = 0; l < 3; ++l) {
        std::vector<std::pair<int, double>> col{{y[0][l], 1.0}, {y[1][l], 1.0}, {y[2][l], 1.0}};
        lp.add_row(col, 1.0, 1.0);
      }
      for (int i = 0; i < 3; ++i) {
        const NodeId sched = resolve_producer(net, node.fanin(i));
        const NodeId pin = driver_key(net, node.fanin(i));
        const auto [dv, dc] = stage_term(sched);
        // sigma_j - sigma_d - sum_l (l+1) y[i][l] >= 0.
        std::vector<std::pair<int, double>> row{{var[id], 1.0}};
        if (dv >= 0) {
          row.push_back({dv, -1.0});
        }
        for (int l = 0; l < 3; ++l) {
          row.push_back({y[i][l], -(l + 1.0)});
        }
        lp.add_row(row, dc, kLpInfinity);
        // Spine bound (T1 edge charged like a plain consumer).
        if (m_var[pin] >= 0) {
          std::vector<std::pair<int, double>> mr{{m_var[pin], static_cast<double>(n)},
                                                 {var[id], -1.0}};
          if (dv >= 0) {
            mr.push_back({dv, 1.0});
          }
          lp.add_row(mr, -static_cast<double>(n) - dc, kLpInfinity);
        }
      }
    } else {
      for (uint8_t i = 0; i < node.num_fanins; ++i) {
        const NodeId sched = resolve_producer(net, node.fanin(i));
        const NodeId pin = driver_key(net, node.fanin(i));
        if (is_const(net, sched)) continue;
        const auto [dv, dc] = stage_term(sched);
        std::vector<std::pair<int, double>> row{{var[id], 1.0}};
        if (dv >= 0) {
          row.push_back({dv, -1.0});
        }
        lp.add_row(row, 1.0 + dc, kLpInfinity);
        if (m_var[pin] >= 0) {
          std::vector<std::pair<int, double>> mr{{m_var[pin], static_cast<double>(n)},
                                                 {var[id], -1.0}};
          if (dv >= 0) {
            mr.push_back({dv, 1.0});
          }
          lp.add_row(mr, -static_cast<double>(n) - dc, kLpInfinity);
        }
      }
    }
  }
  for (const NodeId po : net.pos()) {
    const NodeId sched = resolve_producer(net, po);
    const NodeId pin = driver_key(net, po);
    if (is_const(net, sched) || m_var[pin] < 0) continue;
    const auto [dv, dc] = stage_term(sched);
    std::vector<std::pair<int, double>> mr{{m_var[pin], static_cast<double>(n)}};
    if (dv >= 0) {
      mr.push_back({dv, 1.0});
    }
    lp.add_row(mr, static_cast<double>(out - n) - dc, kLpInfinity);
  }

  MilpParams mp;
  mp.max_nodes = kMilpMaxNodes;
  const MilpSolution sol = solve_milp(lp, integer_vars, mp);
  if (sol.status != MilpStatus::Optimal) {
    return seed;  // fail soft: keep the heuristic assignment
  }
  PhaseAssignment pa;
  pa.stage.assign(net.size(), 0);
  for (NodeId id = 0; id < net.size(); ++id) {
    if (var[id] >= 0) {
      pa.stage[id] = static_cast<Stage>(std::llround(sol.x[var[id]]));
    }
  }
  // Aliases (ports/bufs) mirror their producer for reporting convenience.
  for (const NodeId id : net.topo_order()) {
    const Node& node = net.node(id);
    if (node.type == GateType::T1Port || node.type == GateType::Buf) {
      pa.stage[id] = pa.stage[resolve_producer(net, id)];
    }
  }
  pa.output_stage = out;
  pa.feasible = assignment_feasible(net, pa.stage, out, clk);
  if (!pa.feasible) {
    return seed;
  }
  pa.estimated_dffs = plan_dffs(net, pa.stage, out, clk).total_dffs();
  // The MILP objective ignores dedicated landings; keep whichever assignment
  // is better under the exact cost model.
  return pa.estimated_dffs <= seed.estimated_dffs ? pa : seed;
}

}  // namespace

PhaseAssignment assign_phases(const Network& net, const MultiphaseConfig& clk,
                              const PhaseAssignmentParams& params) {
  Network copy = net;
  const IncrementalView view(copy, CostModel(CellLibrary{}, AreaConfig{}, clk));
  return assign_phases(view, params);
}

PhaseAssignment assign_phases(const IncrementalView& view,
                              const PhaseAssignmentParams& params) {
  return params.engine == PhaseEngine::ExactMilp ? milp_assign(view, params)
                                                 : heuristic_assign(view, params);
}

}  // namespace t1sfq
