#include "opt/cut_rewriting.hpp"

#include <algorithm>

#include "incr/incremental_view.hpp"
#include "network/cut_enumeration.hpp"
#include "network/mffc.hpp"
#include "obs/metrics.hpp"
#include "opt/jj_delta.hpp"
#include "opt/rewrite_db.hpp"

namespace t1sfq {

namespace {

/// Rewriting cut width: the precomputed structure database covers every
/// 4-input function, so a wider cut would need a different database.
constexpr unsigned kCutSize = 4;
/// Priority cuts kept per node.
constexpr unsigned kMaxCuts = 12;

}  // namespace

std::size_t CutRewritingPass::run(Network& net) {
  RewriteDb::Params dbp;
  dbp.lib = model_.lib();
  dbp.clock_jj = model_.area().clock_jj_per_clocked;
  // Rank structures with the same lambda the commit criterion below uses, so
  // the database and the pass agree on what a level of depth is worth.
  dbp.depth_penalty_jj = static_cast<unsigned>(model_.dff_jj());
  const RewriteDb& db = RewriteDb::instance(dbp);

  CutEnumerationParams cp;
  cp.cut_size = kCutSize;
  cp.max_cuts = kMaxCuts;
  const NetworkCuts cuts = enumerate_cuts(net, cp);

  // All analysis state lives in the incremental view: commits land through
  // `view.replace` and only the affected cone is re-derived (the legacy flag
  // services every commit with a full rebuild instead).
  IncrementalView view(net, model_);
  view.set_full_recompute(!params_.incremental);
  // Roots committed earlier in this sweep become dangling; cuts of downstream
  // nodes may still name them as leaves, so leaf references are chased to
  // their live replacement (functions are preserved by every commit).
  std::vector<NodeId> replaced_by(net.size(), kNullNode);
  const auto resolve = [&](NodeId id) {
    while (id < replaced_by.size() && replaced_by[id] != kNullNode) {
      id = replaced_by[id];
    }
    return id;
  };

  std::size_t applied = 0;
  // Hot loop: counters accumulate locally and flush once at the end.
  uint64_t candidates_tried = 0;
  uint64_t abandoned = 0;
  for (const NodeId root : net.topo_order()) {
    if (net.is_dead(root) || replaced_by[root] != kNullNode) continue;
    if (!is_logic_cell(net.node(root).type)) continue;
    if (view.fanout(root) == 0) continue;  // dangling (e.g. interior of a prior commit)

    struct Candidate {
      RewriteMatch match;
      std::vector<NodeId> leaves;
      int64_t delta = 0;  ///< JJ; negative improves
      int64_t score = 0;  ///< delta + depth term; the commit criterion
      uint32_t depth_est = 0;
    };
    std::optional<Candidate> best;

    for (const Cut& cut : cuts[root]) {
      if (cut.num_leaves < 2) continue;
      const auto match = db.match(cut.function, cut.num_leaves);
      if (!match) continue;
      std::vector<NodeId> leaves(cut.num_leaves);
      for (std::size_t i = 0; i < leaves.size(); ++i) {
        leaves[i] = resolve(cut.leaf_ids[i]);
      }

      const std::vector<NodeId> cone = mffc(net, root, view.fanouts(), leaves);
      // Pre-mapping networks hold plain gates only, but never touch a cone
      // that contains timing or T1 cells.
      bool clean = true;
      for (const NodeId id : cone) {
        if (!is_logic_cell(net.node(id).type)) {
          clean = false;
          break;
        }
      }
      if (!clean) continue;

      // Depth estimate from leaf levels; the realized level (measured after
      // instantiation) can only be lower thanks to structural hashing.
      uint32_t leaf_lvl = 0;
      for (const NodeId leaf : leaves) {
        leaf_lvl = std::max(leaf_lvl, view.level(leaf));
      }
      const uint32_t depth_est = leaf_lvl + match->depth;

      // Candidate vs MFFC in unified JJ: gate bodies + clock shares +
      // splitter and shared-spine DFF deltas. On top of the local delta, a
      // level of depth is valued at the DFF marginal, mirroring the structure
      // database's ranking: depth reductions shorten spines and, on critical
      // paths, the balanced output stage itself — savings a local delta
      // cannot see directly.
      const int64_t delta = rewrite_delta(view, root, cone, match->jj_cost, depth_est);
      const int64_t score =
          delta + (static_cast<int64_t>(depth_est) -
                   static_cast<int64_t>(view.level(root))) *
                      model_.dff_jj();
      if (score > 0 || (score == 0 && depth_est >= view.level(root))) continue;

      if (!best || score < best->score ||
          (score == best->score && depth_est < best->depth_est)) {
        best = Candidate{*match, std::move(leaves), delta, score, depth_est};
      }
    }
    if (!best) continue;
    ++candidates_tried;

    const NodeId size_before = static_cast<NodeId>(net.size());
    const NodeId new_root = db.instantiate(best->match, best->leaves, net);
    view.sync();
    // Never regress depth: a commit whose realized root level exceeds the old
    // one is abandoned (its freshly created structure retracted so later
    // pricing never sees phantom edges), and one that realized no depth win
    // must stand on a strict JJ improvement.
    if (new_root == root || view.level(new_root) > view.level(root) ||
        (view.level(new_root) == view.level(root) && best->delta >= 0)) {
      view.kill_dangling_from(size_before);
      ++abandoned;
      continue;
    }
    view.replace(root, new_root);
    replaced_by.resize(net.size(), kNullNode);
    replaced_by[root] = new_root;
    ++applied;
  }

  obs::count("opt.rewrite.candidates", candidates_tried);
  obs::count("opt.rewrite.abandoned", abandoned);
  obs::count("opt.rewrite.committed", applied);
  net.sweep_dangling();
  return applied;
}

}  // namespace t1sfq
