#pragma once
/// \file shard_runner.hpp
/// \brief Partition-parallel optimization engine (`OptParams::partition_jobs`).
///
/// `optimize_partitioned` splits the network into regions (partitioner.hpp),
/// extracts each region into a standalone sub-network (region inputs become
/// sub PIs, boundary members become sub POs), optimizes the sub-networks
/// concurrently on the `bench::run_jobs` thread pool, and merges the results
/// back sequentially through one `IncrementalView`:
///
///   1. instantiate the optimized sub-network into the parent with the
///      strashed `add_gate` builder (new nodes append at the end),
///   2. `sync()` the view so the new nodes have maintained levels,
///   3. for every boundary root, `replace(old, new)` — guarded per root:
///      a replacement whose level exceeds the old root's level is skipped
///      (it could sit in the old root's transitive fanout, and it would
///      deepen the network; both are ruled out by the guard).
///
/// Merging is conflict-free by construction — shard logic is built purely
/// over region inputs, which the partition invariant keeps out of every
/// member's transitive fanout — and ordered by region index, so the final
/// network is a deterministic function of the input network alone:
/// `partition_jobs=N` produces byte-identical results for every N >= 1
/// (pinned by tests/part_test.cpp).
///
/// After the merge a *stitch* round always re-partitions the compacted
/// network with the slice boundaries offset by half a region, and
/// re-optimizes only the regions that contain a surviving former-boundary
/// node — the gates the first round froze.

#include <cstddef>

#include "network/network.hpp"
#include "opt/pass.hpp"

namespace t1sfq {
namespace part {

/// Aggregate statistics of one partition-parallel optimization run. Also
/// flushed to the obs metrics registry under the `part.` prefix.
struct PartitionOptStats {
  std::size_t regions = 0;          ///< regions in the first partition
  std::size_t boundary_nodes = 0;   ///< frozen boundary roots
  std::size_t shards_changed = 0;   ///< shards whose optimization applied > 0
  std::size_t replaced_roots = 0;   ///< boundary roots rewired to shard logic
  std::size_t guard_skipped_roots = 0;  ///< roots skipped by the level guard
  std::size_t sat_checked_shards = 0;   ///< changed shards proved against their input
  std::size_t sat_rejected_shards = 0;  ///< shards those checks falsified (dropped)
  std::size_t stitch_regions = 0;       ///< regions re-optimized by the stitch round
  std::size_t stitch_replaced_roots = 0;
};

/// Partition-parallel standard pipeline on \p net, every shard priced through
/// \p model; the engine behind `optimize()` when `params.partition_jobs > 0`.
/// Falls back to the sequential `PassManager` when the network is below
/// `params.partition_min_gates` or yields fewer than two regions.
OptSummary optimize_partitioned(Network& net, const CostModel& model,
                                const OptParams& params,
                                PartitionOptStats* stats_out = nullptr);

}  // namespace part
}  // namespace t1sfq
