#pragma once
/// \file canonical.hpp
/// \brief Exact and id-independent canonical forms of networks/netlists.
///
/// Two different jobs, two different forms:
///
///   * `exact_signature(Network)` — FNV-1a over the *exact* network state
///     (name, PI/PO order and names, every live node with its numeric ids).
///     This is the service cache key ingredient: equal signatures mean the
///     flow — whose tie-breaks can legitimately depend on node numbering —
///     sees byte-identical inputs, so a warm hit can be served without
///     running anything. Re-parsing the same BLIF yields the same signature;
///     any edit (or even a pure renumbering) misses and falls to ECO/cold.
///
///   * `canonical_text(PhysicalNetlist)` — an id-*independent* serialization:
///     nodes are renumbered by a deterministic PO-anchored post-order DFS
///     (POs in order, fanins in slot order), and each node is emitted with
///     its type, port function, canonical fanins and assigned stage. Two
///     physical netlists have equal canonical text iff they are the same
///     labeled netlist graph with the same schedule — the "bit-identical
///     output" assertion ECO is held to, independent of the incidental node
///     numbering the construction order produced.

#include <cstdint>
#include <string>

#include "core/dff_insertion.hpp"
#include "network/network.hpp"

namespace t1sfq::service {

/// FNV-1a 64-bit over \p data, continuing from \p h.
uint64_t fnv1a(const std::string& data, uint64_t h = 0xcbf29ce484222325ull);

/// Exact-state hash of a network (see file comment). Dead nodes excluded —
/// compaction drops them, so the flow never sees them.
uint64_t exact_signature(const Network& net);

/// Id-independent canonical serialization of a physical netlist + schedule.
std::string canonical_text(const PhysicalNetlist& phys);

}  // namespace t1sfq::service
