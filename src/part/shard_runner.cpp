#include "part/shard_runner.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "benchmarks/runner.hpp"
#include "incr/incremental_view.hpp"
#include "network/equivalence.hpp"
#include "obs/trace.hpp"
#include "part/partitioner.hpp"

namespace t1sfq {
namespace part {

namespace {

/// A region extracted into a standalone sub-network: region inputs become
/// sub PIs (constants map to sub constants), boundary members become sub POs.
struct Shard {
  Network sub;
  std::vector<NodeId> pi_parents;  ///< parent id per sub PI, pis() order
};

/// Per-region work unit: filled concurrently by the shard jobs, consumed
/// sequentially by the merge loop.
struct ShardWork {
  Shard shard;                      ///< optimized sub-network
  std::vector<NodeId> out_parents;  ///< parent id per sub PO, pos() order
  std::size_t applied = 0;          ///< sub-level transforms committed
  bool sat_checked = false;
  bool rejected = false;  ///< the shard's equivalence check falsified it
};

Shard extract_region(const Network& net, const Region& region) {
  Shard s;
  s.sub.set_name(net.name() + ".shard");
  std::vector<NodeId> to_sub(net.size(), kNullNode);
  for (const NodeId in : region.inputs) {
    switch (net.node(in).type) {
      case GateType::Const0:
        to_sub[in] = s.sub.get_const0();
        break;
      case GateType::Const1:
        to_sub[in] = s.sub.get_const1();
        break;
      default:
        to_sub[in] = s.sub.add_pi();
        s.pi_parents.push_back(in);
        break;
    }
  }
  std::vector<NodeId> fans;
  for (const NodeId m : region.members) {
    const Node& nd = net.node(m);
    fans.assign(nd.num_fanins, kNullNode);
    for (unsigned i = 0; i < nd.num_fanins; ++i) {
      fans[i] = to_sub[nd.fanins[i]];
    }
    to_sub[m] = s.sub.add_gate(nd.type, fans);
  }
  for (const NodeId o : region.outputs) {
    s.sub.add_po(to_sub[o]);
  }
  return s;
}

/// The concurrent part: extract, optimize with the sequential pipeline, and
/// prove the shard commit against the pre-optimization sub-network. Pure
/// function of (net, region, model, params) — reads the parent network only,
/// so any thread may run it.
void run_shard(const Network& net, const Region& region, const CostModel& model,
               const OptParams& params, unsigned rounds, ShardWork& out) {
  out.out_parents = region.outputs;
  Shard s = extract_region(net, region);
  const Network before = s.sub;

  OptParams sp = params;
  sp.partition_jobs = 0;  // shards always run the sequential pipeline
  sp.rounds = rounds;
  const OptSummary ss = optimize(s.sub, model, sp);
  out.applied = ss.total_applied;

  if (out.applied > 0) {
    out.sat_checked = true;
    // A budget-out is inconclusive, never a rejection.
    out.rejected = check_equivalence(s.sub, before, /*sim_rounds=*/8,
                                     params.verify_conflict_budget)
                       .result == EquivalenceResult::NotEquivalent;
  }
  out.shard = std::move(s);
}

/// Sequential journaled merge of one optimized shard: instantiates the sub
/// topology into the parent (strashed, so unchanged logic maps back onto the
/// original nodes) and rewires every boundary root through the view. Each
/// root is guarded: the replacement must not be deeper than the root it
/// replaces — which both preserves the passes' never-deepen contract under
/// the parent's (heterogeneous) input levels and discharges `replace`'s
/// not-in-transitive-fanout precondition, because every node in the old
/// root's fanout sits at a strictly higher level (all candidate replacements
/// are clocked cells). Returns the number of roots rewired.
std::size_t merge_shard(IncrementalView& view, const ShardWork& work,
                        PartitionOptStats& st) {
  Network& net = view.net();
  const Network& sub = work.shard.sub;

  std::vector<NodeId> to_parent(sub.size(), kNullNode);
  for (std::size_t i = 0; i < sub.num_pis(); ++i) {
    to_parent[sub.pi(i)] = work.shard.pi_parents[i];
  }
  std::vector<NodeId> fans;
  for (const NodeId sid : sub.topo_order()) {
    const Node& nd = sub.node(sid);
    switch (nd.type) {
      case GateType::Pi:
        break;  // mapped above
      case GateType::Const0:
        to_parent[sid] = net.get_const0();
        break;
      case GateType::Const1:
        to_parent[sid] = net.get_const1();
        break;
      default: {
        fans.assign(nd.num_fanins, kNullNode);
        for (unsigned i = 0; i < nd.num_fanins; ++i) {
          fans[i] = to_parent[nd.fanins[i]];
        }
        to_parent[sid] = net.add_gate(nd.type, fans);
        break;
      }
    }
  }
  view.sync();

  std::size_t replaced = 0;
  for (std::size_t i = 0; i < sub.num_pos(); ++i) {
    const NodeId o = work.out_parents[i];
    const NodeId n = to_parent[sub.po(i)];
    if (n == o) {
      continue;
    }
    if (view.level(n) > view.level(o)) {
      ++st.guard_skipped_roots;
      continue;
    }
    view.replace(o, n);
    ++replaced;
  }
  return replaced;
}

/// One shard phase over \p selected regions: concurrent optimization, then
/// the ordered sequential merge. Returns (shards merged, sub transforms of
/// merged shards).
std::pair<std::size_t, std::size_t> run_phase(
    Network& net, const CostModel& model, const Partition& partition,
    const std::vector<char>& selected, unsigned rounds,
    const OptParams& params, PartitionOptStats& st, std::size_t& replaced_out) {
  std::vector<ShardWork> work(partition.regions.size());
  std::vector<bench::Job> jobs;
  for (std::size_t i = 0; i < partition.regions.size(); ++i) {
    if (!selected[i] || partition.regions[i].outputs.empty()) {
      continue;
    }
    jobs.push_back([&net, &partition, &work, &model, &params, i, rounds](std::ostream&) {
      run_shard(net, partition.regions[i], model, params, rounds, work[i]);
    });
  }
  {
    obs::Span span("part.shards");
    span.arg("jobs", static_cast<int64_t>(jobs.size()));
    std::ostringstream sink;  // shard jobs log nothing
    bench::run_jobs(std::move(jobs), sink, params.partition_jobs);
  }

  std::size_t merged = 0, applied = 0;
  {
    obs::Span span("part.merge");
    IncrementalView view(net, model, /*track_plan=*/false);
    for (std::size_t i = 0; i < partition.regions.size(); ++i) {
      const ShardWork& w = work[i];
      if (w.sat_checked) {
        ++st.sat_checked_shards;
      }
      if (w.rejected) {
        ++st.sat_rejected_shards;
        continue;
      }
      if (w.applied == 0) {
        continue;
      }
      ++merged;
      applied += w.applied;
      replaced_out += merge_shard(view, w, st);
    }
  }
  return {merged, applied};
}

void flush_counters(const PartitionOptStats& st) {
  if (!obs::enabled()) {
    return;
  }
  obs::count("part.runs");
  obs::count("part.regions", static_cast<int64_t>(st.regions));
  obs::count("part.boundary_nodes", static_cast<int64_t>(st.boundary_nodes));
  obs::count("part.shards_changed", static_cast<int64_t>(st.shards_changed));
  obs::count("part.replaced_roots", static_cast<int64_t>(st.replaced_roots));
  obs::count("part.guard_skipped_roots", static_cast<int64_t>(st.guard_skipped_roots));
  obs::count("part.sat_checked_shards", static_cast<int64_t>(st.sat_checked_shards));
  obs::count("part.sat_rejected_shards", static_cast<int64_t>(st.sat_rejected_shards));
  obs::count("part.stitch_regions", static_cast<int64_t>(st.stitch_regions));
  obs::count("part.stitch_replaced_roots", static_cast<int64_t>(st.stitch_replaced_roots));
}

}  // namespace

OptSummary optimize_partitioned(Network& net, const CostModel& model,
                                const OptParams& params, PartitionOptStats* stats_out) {
  obs::Span span("opt.partitioned");
  const auto fall_back = [&](Network& n) {
    obs::count("part.fallback_sequential");
    OptParams seq = params;
    seq.partition_jobs = 0;
    return PassManager::standard(model, seq).run(n);
  };

  if (net.num_gates() < params.partition_min_gates) {
    return fall_back(net);
  }
  OptSummary summary;
  record_before(summary, model.measure_network(net));

  // Settle the network so regions never hold sweepable junk.
  net.sweep_dangling();
  net = net.cleanup();

  PartitionParams pp;
  pp.max_region = params.partition_max_region;
  const Partition partition = partition_network(net, pp);
  if (partition.regions.size() < 2) {
    return fall_back(net);
  }

  PartitionOptStats st;
  st.regions = partition.regions.size();
  st.boundary_nodes = partition.boundary_nodes;

  PassStats shard_ps;
  shard_ps.name = "partition-shards";
  shard_ps.gates_before = net.num_gates();
  shard_ps.depth_before = net.depth();

  const std::vector<char> all(partition.regions.size(), 1);
  const auto [merged, applied] = run_phase(net, model, partition, all, params.rounds,
                                           params, st, st.replaced_roots);
  st.shards_changed = merged;
  summary.total_applied += applied;

  // Remember which *seam-window* members survive the merge: the last/first
  // few members of adjacent regions are exactly where the slicing truncated
  // optimization cones, so only they seed the stitch round. (Region outputs
  // at large would select everything on sink-heavy networks — most members
  // export — and turn the stitch into a full second optimization pass.)
  net.sweep_dangling();
  constexpr std::size_t kSeamWindow = 40;
  std::vector<char> was_seam(net.size(), 0);
  for (const Region& r : partition.regions) {
    const std::size_t w = std::min(kSeamWindow, r.members.size());
    for (std::size_t i = 0; i < w; ++i) {
      const NodeId head = r.members[i];
      const NodeId tail = r.members[r.members.size() - 1 - i];
      if (!net.is_dead(head)) {
        was_seam[head] = 1;
      }
      if (!net.is_dead(tail)) {
        was_seam[tail] = 1;
      }
    }
  }
  std::vector<NodeId> remap;
  net = net.cleanup(&remap);

  shard_ps.applied = applied;
  shard_ps.gates_after = net.num_gates();
  shard_ps.depth_after = net.depth();
  summary.passes.push_back(std::move(shard_ps));

  std::vector<char> frontier(net.size(), 0);
  bool any = false;
  for (NodeId old = 0; old < remap.size(); ++old) {
    if (was_seam[old] && remap[old] != kNullNode) {
      frontier[remap[old]] = 1;
      any = true;
    }
  }
  if (any) {
    // Small offset regions: each selected stitch shard is a narrow window
    // straddling one of the main phase's seams, so the round costs
    // O(seams * window), not a second pass over the whole network.
    PartitionParams sp;
    sp.max_region = std::max<std::size_t>(64, params.partition_max_region / 8);
    sp.first_region_cap = std::max<std::size_t>(1, sp.max_region / 2);
    const Partition stitch = partition_network(net, sp);
    std::vector<char> selected(stitch.regions.size(), 0);
    for (std::size_t i = 0; i < stitch.regions.size(); ++i) {
      for (const NodeId m : stitch.regions[i].members) {
        if (frontier[m]) {
          selected[i] = 1;
          st.stitch_regions++;
          break;
        }
      }
    }
    PassStats stitch_ps;
    stitch_ps.name = "partition-stitch";
    stitch_ps.gates_before = net.num_gates();
    stitch_ps.depth_before = net.depth();
    const auto [smerged, sapplied] =
        run_phase(net, model, stitch, selected, /*rounds=*/1, params, st,
                  st.stitch_replaced_roots);
    (void)smerged;
    summary.total_applied += sapplied;
    net.sweep_dangling();
    net = net.cleanup();
    stitch_ps.applied = sapplied;
    stitch_ps.gates_after = net.num_gates();
    stitch_ps.depth_after = net.depth();
    summary.passes.push_back(std::move(stitch_ps));
  }

  record_after(summary, model.measure_network(net));

  flush_counters(st);
  if (stats_out != nullptr) {
    *stats_out = st;
  }
  return summary;
}

}  // namespace part
}  // namespace t1sfq
