#pragma once
/// \file incremental_view.hpp
/// \brief Delta-maintained analysis views over a Network (the src/incr layer).
///
/// Every layer of the flow asks the same questions of the netlist — fanout
/// counts, consumer lists, legal ASAP stages (levels), the shared-spine DFF
/// plan (cost/dff_plan.hpp), the unified-JJ network estimate — and a full
/// O(n) recompute after every local restructuring (a cost refresh per opt
/// commit, per-commit `fanout_counts()` rebuilds in balancing, a copy-sweep-
/// plan probe per T1 guard decision) makes every pass quadratic past ~10k
/// gates.
///
/// `IncrementalView` maintains all of these views *under edits*:
///
///   * `sync()`          — absorbs nodes appended to the network since the
///                         last call (structure instantiation, new inverters),
///   * `replace(o, n)`   — redirects o's consumers and PO references to n
///                         (the incremental `Network::substitute`),
///   * `kill(id)` / `kill_cone(cone)` — marks nodes dead and retracts their
///                         fanin edges,
///   * `revive_cone(cone)` — inverse of `kill_cone` (commit-guard rollback).
///
/// Each edit updates the cached state by dirty-set propagation: stages are
/// re-relaxed over a worklist seeded with the touched consumers, and the DFF
/// plan (per-pin spine lengths, per-T1 dedicated landings and slot orders)
/// is recomputed only for the pins whose spine inputs changed. Every plan
/// quantity reads stage *differences* only, so a relaxation that shifts a
/// node and all of its plan neighbours by the same amount re-prices nothing
/// (the shift rule, see `mark_unevenly_shifted`). The update cost is
/// proportional to the affected cone, not the network — the invariant the
/// scaling bench (`bench/scaling.cpp`) measures and `tests/incr_test.cpp`
/// pins bit-exact against from-scratch recomputation.
///
/// Views maintained (identical to their from-scratch counterparts):
///   * `stage(id)`       == `net.levels()[id]` (eq.-3-aware ASAP stages),
///   * `fanout(id)`      == `net.fanout_counts()[id]`,
///   * `consumers(id)`   == `net.fanout_lists()[id]` (as a multiset),
///   * `output_stage()`  == max live PO stage + 1,
///   * `planned_dffs()`  == `plan_dffs(net, stages, out, clk).total_dffs()`,
///   * `estimate()`      == `model.network_breakdown(net)` (O(1) query),
///   * `alap_stages()`   == latest feasible stage per node under the current
///                          output stage, delta-maintained by *reverse* dirty
///                          propagation (drained lazily on query), so
///                          `slack(id) = alap(id) - stage(id)` is cheap inside
///                          passes.
///
/// `set_full_recompute(true)` keeps the exact same query API but services
/// every edit with a from-scratch rebuild — the full-recompute reference
/// behind `OptParams::incremental = false`, which tests/incr_test.cpp and
/// tests/opt_property_test.cpp compare the delta-maintained path against.

#include <cstdint>
#include <vector>

#include "cost/cost_model.hpp"
#include "network/network.hpp"

namespace t1sfq {

/// Work counters of one IncrementalView (src/obs instrumentation). Plain
/// accumulators — bumping them costs an increment, so they are maintained
/// unconditionally and flushed to the metrics registry (prefix `incr.`) only
/// when the view dies while observability is enabled.
struct ViewStats {
  uint64_t edits = 0;              ///< replace/kill/revive/sync edits absorbed
  uint64_t stage_relaxations = 0;  ///< dirty nodes drained by propagate()
  uint64_t alap_relaxations = 0;   ///< dirty nodes drained by drain_alap()
  uint64_t alap_full_relax = 0;    ///< full reverse-topo ALAP recomputes
  uint64_t full_rebuilds = 0;      ///< rebuild() calls (ctor + legacy commits)
  uint64_t rebinds = 0;            ///< rebind_after_cleanup() translations
};

class IncrementalView {
public:
  /// Builds the view over \p net. When \p track_plan is true the shared-spine
  /// DFF plan and the unified-JJ estimate are maintained too (the T1 commit
  /// guard needs them; the opt passes only price locally and can skip the
  /// upkeep).
  IncrementalView(Network& net, const CostModel& model, bool track_plan = false);
  /// Flushes the work counters to the metrics registry when obs is enabled.
  ~IncrementalView();
  IncrementalView(const IncrementalView&) = delete;
  IncrementalView& operator=(const IncrementalView&) = delete;

  /// Work counters accumulated over this view's lifetime.
  const ViewStats& view_stats() const { return stats_; }

  Network& net() { return net_; }
  const Network& net() const { return net_; }
  const CostModel& model() const { return model_; }

  /// Full-recompute mode: every edit rebuilds all state from scratch
  /// (identical results, O(n) per edit). A test reference only.
  void set_full_recompute(bool on) { full_recompute_ = on; }

  // -- Queries (all O(1) / O(degree)) -----------------------------------------

  Stage stage(NodeId id) const { return stage_[id]; }
  uint32_t level(NodeId id) const { return static_cast<uint32_t>(stage_[id]); }
  uint32_t fanout(NodeId id) const {
    return id < fanout_.size() ? fanout_[id] : 0;
  }
  const std::vector<uint32_t>& fanouts() const { return fanout_; }
  const std::vector<NodeId>& consumers(NodeId id) const;
  bool is_po(NodeId id) const { return id < po_slots_.size() && !po_slots_[id].empty(); }
  Stage output_stage() const { return output_stage_; }

  /// Query spine under the maintained stages: max over \p driver's consumers
  /// (and the PO sink) of `dffs_on_edge`, with the driver optionally moved to
  /// \p at_stage, consumers in \p skip ignored, and \p extra consumer stages
  /// about to be attached. This is the *pricing* spine (every consumer edge
  /// charged like a plain clocked edge) the opt passes' `rewrite_delta` /
  /// `resub_delta` (opt/jj_delta.hpp) and T1 detection read; the maintained
  /// *plan* spine below additionally models T1 landing slots.
  Stage spine(NodeId driver, const std::vector<NodeId>* skip = nullptr,
              const std::vector<Stage>* extra = nullptr) const;
  Stage spine_at(NodeId driver, Stage at_stage,
                 const std::vector<NodeId>* skip = nullptr,
                 const std::vector<Stage>* extra = nullptr) const;

  // -- Plan / estimate queries (require track_plan) ---------------------------

  bool tracks_plan() const { return track_plan_; }
  /// Shared-spine plan total under the maintained ASAP stages: bit-identical
  /// to `plan_dffs(net, stages, output_stage, clk).total_dffs()`.
  int64_t planned_dffs() const { return total_spine_ + total_dedicated_; }
  /// Maintained plan spine of one pin (driver_key semantics).
  Stage plan_spine(NodeId key) const { return plan_spine_[key]; }
  /// Maintained dedicated-landing count of T1 body \p t1.
  int64_t t1_dedicated(NodeId t1) const { return t1_plan_[t1] & kDedicatedMask; }
  /// Unified-JJ estimate of the live network: bit-identical to
  /// `model.network_breakdown(net)` in O(1).
  JJBreakdown estimate() const;

  /// Recomputes the plan spine of \p key on \p stages (any feasible stage
  /// vector over this network with T1 taps aliased to their body, e.g. a
  /// scheduler or refiner assignment) and the balanced-output sink \p sink,
  /// instead of the maintained ASAP stages and output stage.
  Stage plan_spine_on(NodeId key, const std::vector<Stage>& stages, Stage sink) const;
  /// Dedicated landing DFFs of T1 body \p t1 on \p stages.
  int64_t t1_dedicated_on(NodeId t1, const std::vector<Stage>& stages) const;

  // -- Derived views ----------------------------------------------------------

  /// ALAP stages under the current output stage: latest feasible stage per
  /// scheduled node (conservatively eq.-3 aware: every T1 fanin is bounded by
  /// the smallest landing slot, so stamping nodes at ALAP is always feasible).
  /// Delta-maintained by reverse dirty propagation — the pending worklist is
  /// drained on query, so the amortized cost of a slack query inside a pass
  /// is proportional to the cone the last edit touched, not the network.
  /// Dead nodes hold stale values. Bit-identical to the from-scratch reverse
  /// relaxation (pinned by tests/incr_test.cpp).
  const std::vector<Stage>& alap_stages() const;
  /// Latest feasible stage of one node (drains pending ALAP updates).
  Stage alap(NodeId id) const { return alap_stages()[id]; }
  /// Schedule slack of \p id: how many stages it can slide later while every
  /// consumer (and the balanced output sink) stays feasible.
  Stage slack(NodeId id) const { return alap_stages()[id] - stage_[id]; }

  // -- Edits ------------------------------------------------------------------

  /// Absorbs nodes created on the network since the last sync/edit: assigns
  /// their stages, registers their fanin edges, extends every view.
  void sync();

  /// Exact record of one replace(): which consumer entries (with
  /// multiplicity) and which PO slots moved. Sufficient to invert the edit
  /// even when several replaces share the same destination pin (T1 port
  /// shared by two roots of one candidate).
  struct ReplaceUndo {
    std::vector<NodeId> moved;
    std::vector<std::size_t> po_indices;
  };

  /// Redirects every fanout edge and PO reference of \p oldNode to
  /// \p newNode (exactly `Network::substitute`), updating all views in
  /// O(fanout(oldNode) + affected cone). \p newNode must not be in the
  /// transitive fanout of \p oldNode. Returns the undo record.
  ReplaceUndo replace(NodeId oldNode, NodeId newNode);

  /// Inverts a replace(): moves exactly the recorded edges from \p newNode
  /// back to \p oldNode. Undos must be applied in reverse edit order.
  void unreplace(NodeId oldNode, NodeId newNode, const ReplaceUndo& undo);

  /// Marks \p id dead and retracts its fanin edges. The node must have no
  /// live consumers (kill cones from the root down).
  void kill(NodeId id);
  /// Kills every node of \p cone (any order; cone-internal edges allowed),
  /// then cascades to every gate the cone's death left dangling — e.g. a
  /// sub-cone shared between two roots of a T1 candidate, which no single
  /// root's MFFC contains but which dies when both do (the incremental
  /// equivalent of `sweep_dangling` after the cone's consumers moved away;
  /// PIs and constants are never cascaded into). Returns the full kill list
  /// (cone + cascade) — hand it to revive_cone() to roll the edit back.
  std::vector<NodeId> kill_cone(const std::vector<NodeId>& cone);
  /// Kills all nodes with id >= \p from that are dangling (fanout 0, no PO),
  /// cascading through their fanins within the same id range. Used to retract
  /// abandoned candidate structures.
  void kill_dangling_from(NodeId from);

  /// Revives a previously killed cone (re-adds its fanin edges). The cone
  /// must be exactly as it was when killed; used by the T1 commit guard to
  /// roll a rejected candidate back.
  void revive_cone(const std::vector<NodeId>& cone);

  /// Full rebuild of every view from the network (the legacy path; also the
  /// reference the property test compares incremental maintenance against).
  void rebuild();

  /// Survives a `net = net.cleanup(&old_to_new)` compaction: translates every
  /// per-node array, consumer list, and pending worklist through the id remap
  /// instead of rebuilding from scratch — O(n) array moves with no stage or
  /// plan recomputation, preserving the dirty set across the compaction (the
  /// detection/assignment boundary of run_flow). The view must be settled and
  /// consistent with the network *before* the cleanup, and the network
  /// reference must be the same object the compacted copy was assigned to.
  void rebind_after_cleanup(const std::vector<NodeId>& old_to_new);

private:
  void move_edges(NodeId from, NodeId to, const std::vector<NodeId>& entries,
                  const std::vector<std::size_t>& po_indices);
  void add_edges_of(NodeId id);
  void remove_edges_of(NodeId id);
  void seed_stage_dirty(NodeId id);
  void seed_alap_dirty(NodeId id) const;
  void drain_alap() const;
  Stage compute_alap(NodeId id) const;
  void mark_spine_dirty(NodeId key);
  void mark_t1_dirty(NodeId t1);
  void mark_unevenly_shifted(Stage sink_shift);
  void propagate();
  /// Settles a commit-like edit: dirty-set propagation normally, a full
  /// rebuild in legacy mode (mirroring the historical refresh-per-commit;
  /// sync() stays incremental in both modes, like the old extend()).
  void finish_commit();
  void recompute_output_stage();
  Stage compute_stage(NodeId id) const;
  Stage pin_spine(NodeId key, const std::vector<Stage>& stages, Stage sink,
                  bool cached_orders) const;
  int64_t dedicated_landings(NodeId t1, const std::vector<Stage>& stages,
                             unsigned order) const;
  void update_plan_pin(NodeId key);
  bool update_t1_plan(NodeId t1);
  void account_node(NodeId id, int sign);

  Network& net_;
  CostModel model_;
  bool track_plan_ = false;
  bool full_recompute_ = false;

  std::vector<Stage> stage_;
  std::vector<uint32_t> fanout_;
  std::vector<std::vector<NodeId>> consumers_;
  /// The PO indices each node drives, ascending: replace() moves a driver's
  /// POs without scanning the PO list.
  std::vector<std::vector<std::size_t>> po_slots_;
  Stage output_stage_ = 1;
  bool output_stage_dirty_ = false;

  // Worklists (persistent to avoid per-edit allocation).
  std::vector<NodeId> stage_queue_;
  std::vector<char> in_stage_queue_;
  std::vector<NodeId> spine_dirty_;
  std::vector<char> in_spine_dirty_;
  std::vector<NodeId> t1_dirty_;
  std::vector<char> in_t1_dirty_;

  // Plan state (track_plan_ only).
  std::vector<Stage> plan_spine_;
  /// Per live T1 body, packed: the dedicated-landing count (0..3) in the low
  /// bits, the index of its slot order (`kT1SlotOrders`, 0..5) above them.
  /// Pins read the cached order when pricing on the maintained stages.
  std::vector<uint8_t> t1_plan_;
  static constexpr uint8_t kDedicatedMask = 0x3;
  static constexpr unsigned kOrderShift = 2;
  int64_t total_spine_ = 0;
  int64_t total_dedicated_ = 0;
  /// How far each node moved in the current propagate() (0 between calls),
  /// and the nodes whose shift was set.
  std::vector<Stage> shift_;
  std::vector<NodeId> moved_;

  // Estimate accumulators (track_plan_ only).
  int64_t logic_jj_ = 0;       ///< live non-DFF cells (library cost)
  int64_t dff_node_jj_ = 0;    ///< live physical DFF nodes
  int64_t clocked_cells_ = 0;  ///< live clocked cells (excl. planned DFFs)
  std::vector<uint32_t> split_fanout_;  ///< splitter_fanouts() semantics
  int64_t split_edges_excess_ = 0;      ///< sum of max(0, split_fanout-1)

  // ALAP state: `alap_valid_ == false` forces a full reverse relaxation on the
  // next query (initial state, legacy rebuilds, output-stage changes); between
  // full recomputes the worklist carries exactly the nodes whose consumer
  // edges or ASAP clamp changed, drained lazily on query.
  mutable std::vector<Stage> alap_;
  mutable bool alap_valid_ = false;
  mutable std::vector<NodeId> alap_dirty_;
  mutable std::vector<char> in_alap_dirty_;

  // Mutable: the lazily drained ALAP queries are const.
  mutable ViewStats stats_;
};

}  // namespace t1sfq
