#pragma once
/// \file rewrite_db.hpp
/// \brief Precomputed structure database for cut rewriting (4-input functions).
///
/// The database answers "what is the cheapest known SFQ structure for this
/// Boolean function of up to 4 variables?" — cheapest in **library JJ cost**
/// (cell body plus clock share, the unified currency of cost/cost_model.hpp),
/// not in abstract gate count. It is built by a cost-bounded breadth-first
/// search over truth tables: starting from projections and constants, every
/// combination of settled functions through the cell vocabulary (Not, all six
/// 2-input cells, And3/Or3/Xor3/Maj3) settles new functions at increasing JJ
/// cost, so the first structure recorded for a function is JJ-optimal within
/// the explored budget (ties broken toward smaller depth). Because the BFS
/// prices cells through the `CellLibrary`, a different library genuinely
/// reshapes the database: an expensive XOR makes the search settle xor-class
/// functions through AND/OR/NOT decompositions instead. Complement cells
/// (Nand/Nor/Xnor) make negated functions first-class — essential here
/// because the netlist model has no complemented edges and every explicit
/// inverter is a real clocked cell.
///
/// Lookups are exact first (direct truth-table indexing). When the exact
/// function was not reached within the budget, the lookup falls back to NPN
/// matching (npn.hpp): if the function's NPN class representative has a known
/// structure, the match records the input permutation/negations and output
/// negation needed to bridge them, and instantiation inserts the
/// corresponding inverters (each priced as a real clocked Not cell).
///
/// Databases are cached twice:
///   * in-process — `instance(params)` keeps one immutable database per cost
///     signature (thread-safe; the suite runner shares them across workers),
///   * on disk — the BFS result is persisted to
///     `<cache dir>/rewrite_db_v<K>_<signature>.bin` (cost/disk_cache.hpp)
///     and re-loaded in milliseconds by later processes; any header or size
///     mismatch silently falls back to an in-process rebuild.

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "network/network.hpp"
#include "network/truth_table.hpp"
#include "sfq/cell_library.hpp"

namespace t1sfq {

/// A successful database lookup: the stored function plus the wiring that
/// turns it into the requested one. `input_leaf[j]` selects which of the
/// caller's cut leaves feeds database variable j, complemented when
/// `input_neg[j]`; the final output is complemented when `output_neg`.
struct RewriteMatch {
  uint16_t func = 0;                     ///< database key (4-var truth table)
  std::array<uint8_t, 4> input_leaf{0, 1, 2, 3};
  std::array<bool, 4> input_neg{false, false, false, false};
  bool output_neg = false;
  unsigned jj_cost = 0;     ///< structure JJ (cells + clock shares) incl. bridge inverters
  unsigned depth = 0;       ///< structure levels incl. bridge inverters
};

class RewriteDb {
public:
  struct Params {
    CellLibrary lib{};        ///< per-cell JJ costs the BFS settles against
    unsigned clock_jj = 1;    ///< clock share added per cell (AreaConfig value)
    /// BFS JJ budget per structure. The default explores everything a
    /// five-cell structure of the default library can reach (and more, where
    /// cells are cheap) while keeping the build in the ~300 ms range.
    unsigned max_jj = 60;
    /// Canonize entries up to this JJ cost for the NPN fallback index.
    unsigned npn_index_jj = 40;
    /// Structure ranking weight of one level of depth, in JJ. In a multiphase
    /// netlist every extra structure level delays the root by a clock stage
    /// and costs at least one path-balancing DFF on the driving path, so a
    /// cheap-but-deep structure is not actually cheap in context; the default
    /// is the DFF marginal of the default model (6 JJ body + 1 clock JJ).
    /// 0 ranks by raw JJ alone.
    unsigned depth_penalty_jj = 7;

    /// FNV-1a hash of the library costs and builder knobs; equal signatures
    /// build bit-identical databases. Keys instance() and the disk cache.
    uint64_t signature() const;
  };

  RewriteDb() : RewriteDb(Params{}) {}
  explicit RewriteDb(const Params& params);

  /// Process-wide immutable database for \p params, built (or loaded from the
  /// disk cache) on first use and shared afterwards. Thread-safe.
  static const RewriteDb& instance(const Params& params);
  static const RewriteDb& instance() { return instance(Params{}); }

  /// Number of 4-variable functions with a known structure.
  std::size_t num_settled() const { return num_settled_; }

  /// Cheapest known structure JJ for \p func, or nullopt when unexplored.
  std::optional<unsigned> cost(uint16_t func) const;

  /// Matches the function whose truth-table word over \p num_vars variables
  /// (at most 4; smaller functions are zero-extended) is \p word. Exact
  /// table lookup first, NPN-class fallback second.
  std::optional<RewriteMatch> match(uint64_t word, unsigned num_vars) const;

  /// Materializes a match over \p leaves (indexed by the match's input_leaf)
  /// in \p net and returns the structure's root. Structural hashing in
  /// `add_gate` dedupes against existing logic, so the realized cost is at
  /// most `jj_cost`.
  NodeId instantiate(const RewriteMatch& match, const std::vector<NodeId>& leaves,
                     Network& net) const;

  /// Serialized image of the database (header + entries + NPN index).
  std::vector<uint8_t> serialize(const Params& params) const;
  /// Rebuilds a database from serialize() output; nullopt when the blob does
  /// not match \p params (wrong magic/version/signature or truncated).
  static std::optional<RewriteDb> deserialize(const std::vector<uint8_t>& blob,
                                              const Params& params);
  /// Disk-cache file name for \p params (within cost/disk_cache.hpp's dir).
  static std::string cache_file_name(const Params& params);

private:
  struct Entry {
    uint16_t cost = kUnsettled;  ///< structure JJ; kUnsettled = not settled
    uint8_t depth = 0;
    GateType op = GateType::Const0;  ///< Pi encodes "projection of var operand[0]"
    std::array<uint16_t, 3> operand{0, 0, 0};
  };
  static constexpr uint16_t kUnsettled = 0xffff;

  RewriteDb(std::vector<Entry> entries,
            std::vector<std::pair<uint16_t, uint16_t>> npn_index, std::size_t settled,
            unsigned not_jj);

  void settle_(uint16_t func, uint16_t cost, uint8_t depth, GateType op, uint16_t a,
               uint16_t b, uint16_t c, unsigned depth_penalty);
  bool reaches_(uint16_t from, uint16_t target) const;
  void finalize_costs_(const Params& params);
  NodeId build_(uint16_t func, const std::array<NodeId, 4>& inputs, Network& net) const;

  std::vector<Entry> entries_;              ///< indexed by 4-var truth table
  std::vector<std::vector<uint16_t>> by_cost_;  ///< build-time only
  std::size_t num_settled_ = 0;
  unsigned not_jj_ = 0;  ///< bridge-inverter marginal (cell + clock share)
  /// NPN representative table -> settled member function.
  std::vector<std::pair<uint16_t, uint16_t>> npn_index_;  ///< sorted by .first
};

}  // namespace t1sfq
