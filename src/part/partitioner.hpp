#pragma once
/// \file partitioner.hpp
/// \brief Region partitioning of a network for partition-parallel optimization.
///
/// The partitioner splits the live network into *regions*: disjoint sets of
/// optimizable gates (`is_logic_cell`) that the shard runner can restructure
/// concurrently and merge back conflict-free. Regions are built by cone
/// clustering: an iterative DFS post-order from the POs groups each output
/// cone's logic together, and the resulting topological order is sliced into
/// contiguous runs bounded by `max_region` gates. A run is additionally cut at
/// every non-optimizable *barrier* cell (DFF, T1, T1Port, raw Buf) so that no
/// path between two members of one region can detour through a node outside
/// it.
///
/// The slicing gives the partition its central safety invariant, which the
/// merge step of the shard runner relies on and `tests/part_test.cpp` pins:
///
///   **No region input is in the transitive fanout of any region member.**
///
/// Proof sketch: members of one region occupy a contiguous range of the order
/// except for fanin-less nodes (PIs/constants, which have no transitive
/// fanout at all) — barriers flush the run, and every other gate between two
/// members joins the same region by contiguity. Any input that fed a member
/// from *inside* the range would itself be a member; so every input either
/// precedes the whole range in the topological order (hence cannot consume
/// any member) or has no fanins. Replacing a member with logic built purely
/// over the region's inputs therefore can never close a combinational cycle.
///
/// Boundary nodes ("frozen" in the shard runner) are the region *outputs*:
/// members with at least one consumer outside the region or a PO reference.
/// They become the POs of the extracted shard sub-network, so shard-local
/// optimization preserves their functions exactly.

#include <cstdint>
#include <vector>

#include "network/network.hpp"

namespace t1sfq {
namespace part {

struct PartitionParams {
  /// Gate-count cap per region. Larger regions amortize per-shard overhead
  /// but bound the achievable parallelism (and the merge batch sizes).
  std::size_t max_region = 3000;
  /// Cap of the *first* region only. The stitch round passes `max_region/2`
  /// here so the re-slice offsets every boundary of the previous partition
  /// into a region interior.
  std::size_t first_region_cap = 0;  ///< 0 = use max_region
};

/// One region: a contiguous slice of the cone-clustered topological order.
struct Region {
  std::vector<NodeId> members;  ///< opt gates, in topological order
  std::vector<NodeId> inputs;   ///< external fanins (first-use order, deduped)
  std::vector<NodeId> outputs;  ///< boundary members (external consumer or PO)
};

struct Partition {
  static constexpr uint32_t kNoRegion = ~uint32_t{0};
  std::vector<Region> regions;
  /// Region index per node id; kNoRegion for non-members (PIs, constants,
  /// barrier cells, dead nodes).
  std::vector<uint32_t> region_of;
  std::size_t boundary_nodes = 0;  ///< total outputs over all regions
};

/// Live nodes in cone-clustered topological order: DFS post-order from each
/// PO in turn, then from any remaining live node in id order. Deterministic;
/// every live node appears exactly once, after all of its fanins.
std::vector<NodeId> cone_order(const Network& net);

/// Partitions \p net as described in the file comment. Deterministic pure
/// function of the network (independent of thread count).
Partition partition_network(const Network& net, const PartitionParams& params = {});

}  // namespace part
}  // namespace t1sfq
