#include "incr/incremental_view.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "core/phase_assignment.hpp"
#include "obs/metrics.hpp"

namespace t1sfq {

namespace {

const std::vector<NodeId> kNoConsumers;

constexpr Stage kInfStage = std::numeric_limits<Stage>::max() / 4;

bool is_const_type(GateType t) {
  return t == GateType::Const0 || t == GateType::Const1;
}

}  // namespace

IncrementalView::IncrementalView(Network& net, const CostModel& model, bool track_plan)
    : net_(net), model_(model), track_plan_(track_plan) {
  rebuild();
  stats_.full_rebuilds = 0;  // the constructor's build is not a fallback
}

IncrementalView::~IncrementalView() {
  if (!obs::enabled()) {
    return;
  }
  obs::count("incr.views");
  obs::count("incr.edits", stats_.edits);
  obs::count("incr.stage_relaxations", stats_.stage_relaxations);
  obs::count("incr.alap_relaxations", stats_.alap_relaxations);
  obs::count("incr.alap_full_relax", stats_.alap_full_relax);
  obs::count("incr.full_rebuilds", stats_.full_rebuilds);
  obs::count("incr.view_rebinds", stats_.rebinds);
}

const std::vector<NodeId>& IncrementalView::consumers(NodeId id) const {
  return id < consumers_.size() ? consumers_[id] : kNoConsumers;
}

Stage IncrementalView::compute_stage(NodeId id) const {
  const Node& n = net_.node(id);
  switch (n.type) {
    case GateType::Const0:
    case GateType::Const1:
    case GateType::Pi:
      return 0;
    case GateType::Buf:
    case GateType::T1Port:
      return stage_[n.fanin(0)];
    case GateType::T1: {
      // Paper eq. 3: the three inputs need three distinct landing slots.
      std::array<Stage, 3> s{stage_[n.fanin(0)], stage_[n.fanin(1)], stage_[n.fanin(2)]};
      std::sort(s.begin(), s.end());
      return std::max({s[0] + 3, s[1] + 2, s[2] + 1});
    }
    default: {
      Stage m = 0;
      for (uint8_t i = 0; i < n.num_fanins; ++i) {
        m = std::max(m, stage_[n.fanin(i)]);
      }
      return m + 1;
    }
  }
}

void IncrementalView::rebuild() {
  ++stats_.full_rebuilds;
  const std::size_t n = net_.size();
  stage_.assign(n, 0);
  fanout_.assign(n, 0);
  consumers_.assign(n, {});
  po_refs_.assign(n, 0);
  in_stage_queue_.assign(n, 0);
  in_spine_dirty_.assign(n, 0);
  in_t1_dirty_.assign(n, 0);
  stage_queue_.clear();
  spine_dirty_.clear();
  t1_dirty_.clear();
  alap_valid_ = false;
  in_alap_dirty_.assign(n, 0);
  alap_dirty_.clear();

  for (const NodeId id : net_.topo_order()) {
    // The delta-maintained views track pins by node identity; Buf (JTL)
    // chains only appear in physical netlists, downstream of every
    // subscriber of this view.
    assert(net_.node(id).type != GateType::Buf && "IncrementalView: Buf-free networks only");
    stage_[id] = compute_stage(id);
    const Node& node = net_.node(id);
    for (uint8_t i = 0; i < node.num_fanins; ++i) {
      consumers_[node.fanin(i)].push_back(id);
      ++fanout_[node.fanin(i)];
    }
  }
  output_stage_ = 1;
  for (const NodeId po : net_.pos()) {
    ++po_refs_[po];
    ++fanout_[po];
    output_stage_ = std::max<Stage>(output_stage_, stage_[po] + 1);
  }
  output_stage_dirty_ = false;

  if (!track_plan_) {
    return;
  }
  plan_spine_.assign(n, 0);
  t1_dedicated_.assign(n, 0);
  total_spine_ = total_dedicated_ = 0;
  logic_jj_ = dff_node_jj_ = clocked_cells_ = 0;
  split_fanout_.assign(n, 0);
  split_edges_excess_ = 0;
  for (NodeId id = 0; id < n; ++id) {
    const Node& node = net_.node(id);
    if (node.dead) continue;
    account_node(id, +1);
    if (node.type != GateType::T1Port) {
      for (uint8_t i = 0; i < node.num_fanins; ++i) {
        ++split_fanout_[node.fanin(i)];
      }
    }
  }
  for (const NodeId po : net_.pos()) {
    ++split_fanout_[po];
  }
  for (NodeId id = 0; id < n; ++id) {
    if (!net_.is_dead(id) && split_fanout_[id] > 1) {
      split_edges_excess_ += split_fanout_[id] - 1;
    }
  }
  for (NodeId id = 0; id < n; ++id) {
    if (net_.is_dead(id)) continue;
    update_plan_pin(id);
    if (net_.node(id).type == GateType::T1) {
      update_t1_dedicated(id);
    }
  }
}

void IncrementalView::rebind_after_cleanup(const std::vector<NodeId>& old_to_new) {
  ++stats_.rebinds;
  const std::size_t n = net_.size();
  const std::size_t old_n = old_to_new.size();

  // Dense per-node arrays: value at old id moves to its new id. Dead nodes
  // (mapped to kNullNode) are dropped; the compacted network has no slot for
  // them and, with the view settled, they hold no edges either.
  const auto remap_stage = [&](std::vector<Stage>& v) {
    std::vector<Stage> fresh(n, 0);
    for (NodeId o = 0; o < old_n && o < v.size(); ++o) {
      if (old_to_new[o] != kNullNode) fresh[old_to_new[o]] = v[o];
    }
    v = std::move(fresh);
  };
  const auto remap_u32 = [&](std::vector<uint32_t>& v) {
    std::vector<uint32_t> fresh(n, 0);
    for (NodeId o = 0; o < old_n && o < v.size(); ++o) {
      if (old_to_new[o] != kNullNode) fresh[old_to_new[o]] = v[o];
    }
    v = std::move(fresh);
  };
  // Pending worklists: translate the surviving entries, drop the dead ones.
  const auto remap_list = [&](std::vector<NodeId>& list, std::vector<char>& flags) {
    std::vector<NodeId> fresh;
    fresh.reserve(list.size());
    for (const NodeId o : list) {
      if (o < old_n && old_to_new[o] != kNullNode) {
        fresh.push_back(old_to_new[o]);
      }
    }
    flags.assign(n, 0);
    for (const NodeId id : fresh) flags[id] = 1;
    list = std::move(fresh);
  };

  remap_stage(stage_);
  remap_u32(fanout_);
  remap_u32(po_refs_);
  {
    std::vector<std::vector<NodeId>> fresh(n);
    for (NodeId o = 0; o < old_n && o < consumers_.size(); ++o) {
      const NodeId m = old_to_new[o];
      if (m == kNullNode) continue;
      fresh[m] = std::move(consumers_[o]);
      for (NodeId& c : fresh[m]) {
        assert(c < old_n && old_to_new[c] != kNullNode &&
               "rebind: consumer entry died without edge retraction");
        c = old_to_new[c];
      }
    }
    consumers_ = std::move(fresh);
  }
  remap_list(stage_queue_, in_stage_queue_);
  remap_list(spine_dirty_, in_spine_dirty_);
  remap_list(t1_dirty_, in_t1_dirty_);
  remap_list(alap_dirty_, in_alap_dirty_);
  {
    std::vector<Stage> fresh(n, 0);
    for (NodeId o = 0; o < old_n && o < alap_.size(); ++o) {
      if (old_to_new[o] != kNullNode) fresh[old_to_new[o]] = alap_[o];
    }
    alap_ = std::move(fresh);
  }
  if (track_plan_) {
    remap_stage(plan_spine_);
    remap_u32(split_fanout_);
    std::vector<int64_t> fresh(n, 0);
    for (NodeId o = 0; o < old_n && o < t1_dedicated_.size(); ++o) {
      if (old_to_new[o] != kNullNode) fresh[old_to_new[o]] = t1_dedicated_[o];
    }
    t1_dedicated_ = std::move(fresh);
  }
  // Scalars (output_stage_, totals, estimate accumulators, alap_valid_) are
  // id-independent: the compaction changed no live structure.
}

void IncrementalView::account_node(NodeId id, int sign) {
  const Node& n = net_.node(id);
  if (n.type == GateType::Dff) {
    dff_node_jj_ += sign * static_cast<int64_t>(model_.lib().jj_dff);
  } else {
    logic_jj_ += sign * static_cast<int64_t>(model_.lib().jj_cost(n.type, n.port));
  }
  if (is_clocked(n.type)) {
    clocked_cells_ += sign;
  }
}

void IncrementalView::seed_stage_dirty(NodeId id) {
  if (!in_stage_queue_[id]) {
    in_stage_queue_[id] = 1;
    stage_queue_.push_back(id);
  }
}

void IncrementalView::seed_alap_dirty(NodeId id) const {
  // Pointless while the cache is invalid (the next query recomputes all of
  // it), but harmless — and the flags vector is always sized.
  if (!in_alap_dirty_[id]) {
    in_alap_dirty_[id] = 1;
    alap_dirty_.push_back(id);
  }
}

void IncrementalView::mark_spine_dirty(NodeId key) {
  if (!track_plan_) return;
  if (!in_spine_dirty_[key]) {
    in_spine_dirty_[key] = 1;
    spine_dirty_.push_back(key);
  }
}

/// Marks every plan quantity that depends on stage(u) dirty: u's own pin, the
/// edge requirements into u (its fanin pins), and — where u touches a T1 —
/// the slot permutation's whole neighbourhood.
void IncrementalView::touch_spine_around(NodeId id) {
  if (!track_plan_) return;
  const Node& n = net_.node(id);
  mark_spine_dirty(id);
  for (uint8_t i = 0; i < n.num_fanins; ++i) {
    mark_spine_dirty(n.fanin(i));
  }
  const auto touch_t1 = [&](NodeId t1) {
    if (!in_t1_dirty_[t1]) {
      in_t1_dirty_[t1] = 1;
      t1_dirty_.push_back(t1);
    }
    const Node& body = net_.node(t1);
    for (uint8_t i = 0; i < body.num_fanins; ++i) {
      mark_spine_dirty(body.fanin(i));
    }
  };
  if (n.type == GateType::T1) {
    touch_t1(id);
  }
  for (const NodeId c : consumers_[id]) {
    if (net_.node(c).type == GateType::T1) {
      touch_t1(c);
    }
  }
}

void IncrementalView::recompute_output_stage() {
  const Stage before = output_stage_;
  output_stage_ = 1;
  for (const NodeId po : net_.pos()) {
    output_stage_ = std::max<Stage>(output_stage_, stage_[po] + 1);
  }
  output_stage_dirty_ = false;
  if (output_stage_ != before) {
    // The sink bound enters the ALAP of every PO and every dangling node —
    // too broad a front to seed; fall back to one full reverse relaxation on
    // the next query (output-stage changes are rare next to pin edits).
    alap_valid_ = false;
    if (track_plan_) {
      for (const NodeId po : net_.pos()) {
        mark_spine_dirty(po);
      }
    }
  }
}

std::vector<NodeId> IncrementalView::plan_consumers(NodeId key) const {
  std::vector<NodeId> out;
  for (const NodeId c : consumers(key)) {
    const GateType t = net_.node(c).type;
    if (t == GateType::T1Port) continue;  // tap edge, not a timed consumer
    if (is_clocked(t)) {
      out.push_back(c);
    }
  }
  for (uint32_t r = 0; r < (key < po_refs_.size() ? po_refs_[key] : 0); ++r) {
    out.push_back(kNullNode);
  }
  return out;
}

Stage IncrementalView::plan_spine_on(NodeId key, const std::vector<Stage>& stages,
                                     Stage sink) const {
  if (is_const_type(net_.node(resolve_producer(net_, key)).type)) {
    return 0;
  }
  const Stage n = static_cast<Stage>(model_.clk().phases);
  const Stage sd = stages[key];
  Stage req = 0;
  for (const NodeId c : consumers(key)) {
    const Node& cn = net_.node(c);
    if (cn.type == GateType::T1Port) continue;
    if (cn.type == GateType::T1) {
      const auto slots = t1_slot_perm(net_, stages, c, n);
      for (unsigned i = 0; i < 3; ++i) {
        if (cn.fanin(i) != key) continue;
        const Stage t = stages[c] - slots[i];
        if (t > sd) {
          req = std::max(req, (t - sd) / n);  // the chain rides/extends the spine
        }
      }
    } else if (is_clocked(cn.type)) {
      req = std::max(req, model_.clk().dffs_on_edge(sd, stages[c]));
    }
  }
  if (is_po(key)) {
    req = std::max(req, model_.clk().dffs_on_edge(sd, sink));
  }
  return req;
}

int64_t IncrementalView::t1_dedicated_on(NodeId t1, const std::vector<Stage>& stages) const {
  const Stage n = static_cast<Stage>(model_.clk().phases);
  const auto slots = t1_slot_perm(net_, stages, t1, n);
  const Node& body = net_.node(t1);
  int64_t count = 0;
  for (unsigned i = 0; i < 3; ++i) {
    const NodeId d = resolve_producer(net_, body.fanin(i));
    if (is_const_type(net_.node(d).type)) continue;
    const Stage t = stages[t1] - slots[i];
    if (t > stages[d] && (t - stages[d]) % n != 0) {
      ++count;
    }
  }
  return count;
}

void IncrementalView::update_plan_pin(NodeId key) {
  const Stage fresh = net_.is_dead(key) ? 0 : plan_spine_on(key, stage_, output_stage_);
  total_spine_ += fresh - plan_spine_[key];
  plan_spine_[key] = fresh;
}

void IncrementalView::update_t1_dedicated(NodeId t1) {
  const int64_t fresh = net_.is_dead(t1) ? 0 : t1_dedicated_on(t1, stage_);
  total_dedicated_ += fresh - t1_dedicated_[t1];
  t1_dedicated_[t1] = fresh;
}

void IncrementalView::propagate() {
  // Stage relaxation over the dirty worklist. Processing order is free on a
  // DAG (a node may be visited more than once while its fanins settle); the
  // front only ever spans the affected cone.
  for (std::size_t head = 0; head < stage_queue_.size(); ++head) {
    const NodeId u = stage_queue_[head];
    in_stage_queue_[u] = 0;
    if (net_.is_dead(u)) continue;
    const Stage fresh = compute_stage(u);
    if (fresh == stage_[u]) continue;
    stage_[u] = fresh;
    seed_alap_dirty(u);  // the ASAP clamp of u's ALAP moved with it
    touch_spine_around(u);
    if (po_refs_[u] > 0) {
      output_stage_dirty_ = true;
    }
    for (const NodeId c : consumers_[u]) {
      seed_stage_dirty(c);
    }
  }
  stats_.stage_relaxations += stage_queue_.size();  // total drained this call
  stage_queue_.clear();
  if (output_stage_dirty_) {
    recompute_output_stage();
  }
  if (track_plan_) {
    for (const NodeId t1 : t1_dirty_) {
      in_t1_dirty_[t1] = 0;
      update_t1_dedicated(t1);
    }
    t1_dirty_.clear();
    for (const NodeId key : spine_dirty_) {
      in_spine_dirty_[key] = 0;
      update_plan_pin(key);
    }
    spine_dirty_.clear();
  }
}

void IncrementalView::finish_commit() {
  ++stats_.edits;
  if (full_recompute_) {
    rebuild();  // the O(n)-per-commit full-recompute reference
    return;
  }
  propagate();
}

void IncrementalView::sync() {
  const NodeId tracked = static_cast<NodeId>(stage_.size());
  if (tracked == net_.size()) {
    return;
  }
  const std::size_t n = net_.size();
  stage_.resize(n, 0);
  fanout_.resize(n, 0);
  consumers_.resize(n);
  po_refs_.resize(n, 0);
  in_stage_queue_.resize(n, 0);
  in_spine_dirty_.resize(n, 0);
  in_t1_dirty_.resize(n, 0);
  in_alap_dirty_.resize(n, 0);
  alap_.resize(n, 0);
  if (track_plan_) {
    plan_spine_.resize(n, 0);
    t1_dedicated_.resize(n, 0);
    split_fanout_.resize(n, 0);
  }
  for (NodeId id = tracked; id < n; ++id) {
    const Node& node = net_.node(id);
    assert(node.type != GateType::Buf && "IncrementalView: Buf-free networks only");
    // New nodes only reference existing ones, so a single in-order pass
    // settles their stages without touching any existing stage.
    stage_[id] = compute_stage(id);
    seed_alap_dirty(id);  // fresh node: its ALAP has never been computed
    for (uint8_t i = 0; i < node.num_fanins; ++i) {
      const NodeId f = node.fanin(i);
      consumers_[f].push_back(id);
      ++fanout_[f];
      mark_spine_dirty(f);
      seed_alap_dirty(f);
    }
    if (track_plan_) {
      account_node(id, +1);
      if (node.type != GateType::T1Port) {
        for (uint8_t i = 0; i < node.num_fanins; ++i) {
          const NodeId f = node.fanin(i);
          ++split_fanout_[f];
          if (split_fanout_[f] > 1) {
            ++split_edges_excess_;
          }
        }
      }
      if (node.type == GateType::T1) {
        touch_spine_around(id);
      }
    }
  }
  propagate();
}

void IncrementalView::move_edges(NodeId from, NodeId to,
                                 const std::vector<NodeId>& entries,
                                 const std::vector<std::size_t>& po_indices) {
  // Consumer list entries (one per fanin slot using the pin).
  for (const NodeId c : entries) {
    auto& list = consumers_[from];
    const auto it = std::find(list.begin(), list.end(), c);
    assert(it != list.end());
    list.erase(it);
    consumers_[to].push_back(c);
  }
  fanout_[from] -= static_cast<uint32_t>(entries.size());
  fanout_[to] += static_cast<uint32_t>(entries.size());
  // Rewrite as many fanin slots per consumer as entries recorded for it.
  std::vector<std::pair<NodeId, uint32_t>> counts;
  for (const NodeId c : entries) {
    auto it = std::find_if(counts.begin(), counts.end(),
                           [&](const auto& e) { return e.first == c; });
    if (it == counts.end()) {
      counts.push_back({c, 1});
    } else {
      ++it->second;
    }
  }
  for (auto& [c, k] : counts) {
    const Node& cn = net_.node(c);
    for (uint8_t i = 0; i < cn.num_fanins && k > 0; ++i) {
      if (cn.fanin(i) == from) {
        net_.set_fanin(c, i, to);
        --k;
      }
    }
    assert(k == 0 && "move_edges: fewer fanin slots than recorded entries");
  }
  if (track_plan_) {
    for (const NodeId c : entries) {
      if (net_.node(c).type != GateType::T1Port) {
        if (split_fanout_[from]-- > 1) --split_edges_excess_;
        if (split_fanout_[to]++ > 0) ++split_edges_excess_;
      }
    }
  }
  if (!po_indices.empty()) {
    for (const std::size_t i : po_indices) {
      assert(net_.pos()[i] == from);
      net_.set_po(i, to);
    }
    const uint32_t refs = static_cast<uint32_t>(po_indices.size());
    po_refs_[from] -= refs;
    po_refs_[to] += refs;
    fanout_[from] -= refs;
    fanout_[to] += refs;
    if (track_plan_) {
      for (uint32_t r = 0; r < refs; ++r) {
        if (split_fanout_[from]-- > 1) --split_edges_excess_;
        if (split_fanout_[to]++ > 0) ++split_edges_excess_;
      }
    }
    output_stage_dirty_ = true;
  }
  mark_spine_dirty(from);
  mark_spine_dirty(to);
  seed_alap_dirty(from);  // both pins' consumer sets (and PO bounds) changed
  seed_alap_dirty(to);
  for (const auto& [c, k] : counts) {
    (void)k;
    seed_stage_dirty(c);
    if (track_plan_ && net_.node(c).type == GateType::T1) {
      touch_spine_around(c);  // the slot permutation sees the new fanin stage
    }
  }
  finish_commit();
}

IncrementalView::ReplaceUndo IncrementalView::replace(NodeId oldNode, NodeId newNode) {
  sync();
  ReplaceUndo undo;
  if (oldNode == newNode) {
    return undo;
  }
  undo.moved = consumers_[oldNode];
  const auto& pos = net_.pos();
  for (std::size_t i = 0; i < pos.size(); ++i) {
    if (pos[i] == oldNode) {
      undo.po_indices.push_back(i);
    }
  }
  move_edges(oldNode, newNode, undo.moved, undo.po_indices);
  return undo;
}

void IncrementalView::unreplace(NodeId oldNode, NodeId newNode, const ReplaceUndo& undo) {
  sync();
  move_edges(newNode, oldNode, undo.moved, undo.po_indices);
}

void IncrementalView::remove_edges_of(NodeId id) {
  const Node& n = net_.node(id);
  for (uint8_t i = 0; i < n.num_fanins; ++i) {
    const NodeId f = n.fanin(i);
    auto& list = consumers_[f];
    const auto it = std::find(list.begin(), list.end(), id);
    assert(it != list.end());
    list.erase(it);
    --fanout_[f];
    mark_spine_dirty(f);
    seed_alap_dirty(f);
    if (track_plan_ && n.type != GateType::T1Port) {
      if (split_fanout_[f]-- > 1) --split_edges_excess_;
    }
    if (track_plan_ && net_.node(f).type == GateType::T1) {
      touch_spine_around(f);
    }
  }
}

void IncrementalView::add_edges_of(NodeId id) {
  const Node& n = net_.node(id);
  for (uint8_t i = 0; i < n.num_fanins; ++i) {
    const NodeId f = n.fanin(i);
    consumers_[f].push_back(id);
    ++fanout_[f];
    mark_spine_dirty(f);
    seed_alap_dirty(f);
    if (track_plan_ && n.type != GateType::T1Port) {
      if (split_fanout_[f]++ > 0) ++split_edges_excess_;
    }
    if (track_plan_ && net_.node(f).type == GateType::T1) {
      touch_spine_around(f);
    }
  }
}

void IncrementalView::kill(NodeId id) {
  sync();
  assert(fanout_[id] == 0 && "kill: node still has live consumers or PO refs");
  net_.mark_dead(id);
  remove_edges_of(id);
  if (track_plan_) {
    account_node(id, -1);
    if (split_fanout_[id] > 1) {
      split_edges_excess_ -= split_fanout_[id] - 1;  // a dead pin splits nothing
    }
    mark_spine_dirty(id);
    if (net_.node(id).type == GateType::T1) {
      if (!in_t1_dirty_[id]) {
        in_t1_dirty_[id] = 1;
        t1_dirty_.push_back(id);
      }
    }
  }
  finish_commit();
}

std::vector<NodeId> IncrementalView::kill_cone(const std::vector<NodeId>& cone) {
  sync();
  std::vector<NodeId> killed = cone;
  for (const NodeId id : cone) {
    assert(!net_.is_dead(id));
    net_.mark_dead(id);
  }
  // `killed` grows while the loop runs: once a node's edges are retracted,
  // any fanin gate left without consumers or PO references joins the kill —
  // the incremental equivalent of sweeping the cone's dangling closure.
  for (std::size_t i = 0; i < killed.size(); ++i) {
    const NodeId id = killed[i];
    remove_edges_of(id);
    if (track_plan_) {
      account_node(id, -1);
      mark_spine_dirty(id);
      if (net_.node(id).type == GateType::T1 && !in_t1_dirty_[id]) {
        in_t1_dirty_[id] = 1;
        t1_dirty_.push_back(id);
      }
    }
    const Node& n = net_.node(id);
    for (uint8_t f = 0; f < n.num_fanins; ++f) {
      const NodeId fi = n.fanin(f);
      const GateType t = net_.node(fi).type;
      if (net_.is_dead(fi) || fanout_[fi] != 0 || po_refs_[fi] != 0 ||
          t == GateType::Pi || t == GateType::Const0 || t == GateType::Const1) {
        continue;
      }
      net_.mark_dead(fi);
      killed.push_back(fi);
    }
  }
  if (track_plan_) {
    for (const NodeId id : killed) {
      // remove_edges_of ran for the whole closure: split counts are final.
      if (split_fanout_[id] > 1) {
        split_edges_excess_ -= split_fanout_[id] - 1;
      }
    }
  }
  finish_commit();
  return killed;
}

void IncrementalView::revive_cone(const std::vector<NodeId>& cone) {
  sync();
  for (const NodeId id : cone) {
    assert(net_.is_dead(id));
    net_.revive(id);
  }
  for (const NodeId id : cone) {
    add_edges_of(id);
    seed_stage_dirty(id);
    seed_alap_dirty(id);  // stale while dead; recompute from the re-added edges
    if (track_plan_) {
      account_node(id, +1);
      mark_spine_dirty(id);
      if (net_.node(id).type == GateType::T1 && !in_t1_dirty_[id]) {
        in_t1_dirty_[id] = 1;
        t1_dirty_.push_back(id);
      }
    }
  }
  // (Splitter excess needs no cone pass here: add_edges_of restored every
  // count from zero, adjusting the excess edge by edge.)
  finish_commit();
}

void IncrementalView::kill_dangling_from(NodeId from) {
  sync();
  // One batched retraction: edges come out as each node dies (keeping the
  // fanout counts the fixpoint loop reads current), and the views settle
  // once at the end — a single rebuild in legacy mode, one propagation here.
  bool any = false;
  bool again = true;
  while (again) {
    again = false;
    for (NodeId id = static_cast<NodeId>(net_.size()); id-- > from;) {
      if (net_.is_dead(id) || fanout_[id] != 0 || po_refs_[id] != 0) {
        continue;
      }
      net_.mark_dead(id);
      remove_edges_of(id);
      if (track_plan_) {
        account_node(id, -1);
        mark_spine_dirty(id);
        if (net_.node(id).type == GateType::T1 && !in_t1_dirty_[id]) {
          in_t1_dirty_[id] = 1;
          t1_dirty_.push_back(id);
        }
      }
      again = any = true;
    }
  }
  if (any) {
    finish_commit();
  }
}

Stage IncrementalView::spine(NodeId driver, const std::vector<NodeId>* skip,
                             const std::vector<Stage>* extra) const {
  return spine_at(driver, stage_[driver], skip, extra);
}

Stage IncrementalView::spine_at(NodeId driver, Stage at_stage,
                                const std::vector<NodeId>* skip,
                                const std::vector<Stage>* extra) const {
  Stage len = 0;
  for (const NodeId c : consumers(driver)) {
    if (skip && std::find(skip->begin(), skip->end(), c) != skip->end()) {
      continue;
    }
    len = std::max(len, model_.clk().dffs_on_edge(at_stage, stage_[c]));
  }
  if (is_po(driver)) {
    len = std::max(len, model_.clk().dffs_on_edge(at_stage, output_stage_));
  }
  if (extra) {
    for (const Stage sc : *extra) {
      len = std::max(len, model_.clk().dffs_on_edge(at_stage, sc));
    }
  }
  return len;
}

JJBreakdown IncrementalView::estimate() const {
  assert(track_plan_ && "estimate() needs a plan-tracking view");
  JJBreakdown b;
  const int64_t planned = planned_dffs();
  b.logic = static_cast<uint64_t>(logic_jj_);
  b.dff = static_cast<uint64_t>(dff_node_jj_ + planned * static_cast<int64_t>(model_.lib().jj_dff));
  if (model_.area().count_splitters) {
    b.splitter = static_cast<uint64_t>(split_edges_excess_) * model_.lib().jj_splitter;
  }
  b.clock = static_cast<uint64_t>(clocked_cells_ + planned) *
            static_cast<uint64_t>(model_.area().clock_jj_per_clocked);
  return b;
}

/// Conservative eq.-3-aware ALAP of one node from its consumers' settled
/// values: every T1 fanin is bounded by the smallest landing slot (body − 3),
/// so stamping each node at its ALAP stage is always a feasible assignment.
/// The incremental scheduler (core/phase_assignment.cpp) seeds its first
/// sweep from this recurrence at `output_slack` 0, so it must never
/// under-report a move window (tests pin that scheduler to the full sweep).
Stage IncrementalView::compute_alap(NodeId id) const {
  Stage hi = po_refs_[id] > 0 ? output_stage_ - 1 : kInfStage;
  for (const NodeId c : consumers_[id]) {
    const Node& cn = net_.node(c);
    if (cn.type == GateType::T1Port) {
      hi = std::min(hi, alap_[c]);  // taps alias their body
    } else if (cn.type == GateType::T1) {
      hi = std::min(hi, alap_[c] - 3);
    } else if (is_clocked(cn.type)) {
      hi = std::min(hi, alap_[c] - 1);
    }
  }
  if (hi >= kInfStage) {
    hi = output_stage_ - 1;  // dangling: only the sink bounds it
  }
  return std::max(hi, stage_[id]);  // never below the ASAP stage
}

/// Reverse relaxation over the dirty worklist: the mirror image of the
/// forward stage propagation — a settled node whose value moved re-seeds its
/// fanins, so the front spans exactly the cone the last edits touched.
void IncrementalView::drain_alap() const {
  for (std::size_t head = 0; head < alap_dirty_.size(); ++head) {
    const NodeId u = alap_dirty_[head];
    in_alap_dirty_[u] = 0;
    if (net_.is_dead(u)) continue;
    const Stage fresh = compute_alap(u);
    if (fresh == alap_[u]) continue;
    alap_[u] = fresh;
    const Node& n = net_.node(u);
    for (uint8_t i = 0; i < n.num_fanins; ++i) {
      seed_alap_dirty(n.fanin(i));
    }
  }
  stats_.alap_relaxations += alap_dirty_.size();
  alap_dirty_.clear();
}

const std::vector<Stage>& IncrementalView::alap_stages() const {
  if (!alap_valid_) {
    ++stats_.alap_full_relax;
    // Full reverse relaxation (initial state, legacy rebuilds, output-stage
    // changes): one reverse-topo pass settles every live node.
    alap_.assign(net_.size(), 0);
    auto order = net_.topo_order();
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      alap_[*it] = compute_alap(*it);
    }
    for (const NodeId id : alap_dirty_) {
      in_alap_dirty_[id] = 0;
    }
    alap_dirty_.clear();
    alap_valid_ = true;
    return alap_;
  }
  drain_alap();
  return alap_;
}

}  // namespace t1sfq
