#pragma once
/// \file network.hpp
/// \brief Typed gate-level logic network — the mapped-SFQ netlist representation.
///
/// The flow in this library operates on *mapped* networks whose nodes are SFQ
/// standard cells (clocked AND/OR/XOR/NOT gates, path-balancing DFFs) plus the
/// multi-output T1 cell of the paper. A T1 instance is represented as one
/// `T1` *body* node (three data fanins, all merged into the physical T input;
/// the R input is the clock) and up to five `T1Port` *tap* nodes selecting one
/// of the body's synchronous output functions (S = XOR3, C = MAJ3, Q = OR3,
/// and the inverted C*, Q* variants realized with an appended inverter).
///
/// Complemented edges do not exist: inversion is an explicit `Not` cell, as in
/// a physical RSFQ netlist. Builders perform structural hashing and constant
/// folding, so generator code can be written naively.

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "network/truth_table.hpp"

namespace t1sfq {

using NodeId = uint32_t;
constexpr NodeId kNullNode = ~NodeId{0};

/// Cell types. `Const0/Const1` never appear in final netlists (folded or fed
/// to POs directly); `Dff` is a path-balancing flip-flop (logically identity);
/// `T1`/`T1Port` model the paper's cell as described in the file comment.
enum class GateType : uint8_t {
  Const0,
  Const1,
  Pi,
  Buf,
  Not,
  And2,
  Or2,
  Xor2,
  Nand2,
  Nor2,
  Xnor2,
  And3,
  Or3,
  Xor3,
  Maj3,
  Dff,
  T1,
  T1Port,
};

/// Which synchronous output of a T1 body a `T1Port` node taps.
enum class T1PortFn : uint8_t {
  Sum,     ///< S  : XOR3 of the data fanins
  Carry,   ///< C  : MAJ3
  Or,      ///< Q  : OR3
  CarryN,  ///< C* + inverter : NOT MAJ3
  OrN,     ///< Q* + inverter : NOT OR3
};

const char* to_string(GateType type);
const char* to_string(T1PortFn fn);

/// Number of data fanins a gate of this type takes.
unsigned gate_arity(GateType type);
/// True for the eleven logic cells: Not and the two- and three-input gates.
/// These are what T1 detection roots cuts at, what the optimizer and the
/// partitioner restructure, and what `read_blif` rebuilds a matching cover
/// as; PIs, constants, Buf (a JTL), DFFs and T1 parts are not logic cells.
inline bool is_logic_cell(GateType type) {
  switch (type) {
    case GateType::Not:
    case GateType::And2:
    case GateType::Or2:
    case GateType::Xor2:
    case GateType::Nand2:
    case GateType::Nor2:
    case GateType::Xnor2:
    case GateType::And3:
    case GateType::Or3:
    case GateType::Xor3:
    case GateType::Maj3:
      return true;
    default:
      return false;
  }
}
/// True for cells that consume a clock phase (the logic cells, DFFs and T1
/// bodies; Buf is a JTL and splitters/taps are passive).
inline bool is_clocked(GateType type) {
  return is_logic_cell(type) || type == GateType::Dff || type == GateType::T1;
}
/// True for Const0/Const1: a constant fires no pulses, so it needs no DFF
/// spine and cannot feed a T1 body.
inline bool is_constant(GateType type) {
  return type == GateType::Const0 || type == GateType::Const1;
}

/// Earliest stage of a T1 body whose three fanin producers fire at stages
/// \p a, \p b and \p c (paper eq. 3): the inputs need three distinct landing
/// slots one, two and three stages before the body, so with the stages sorted
/// s0 <= s1 <= s2 the body waits for max(s0 + 3, s1 + 2, s2 + 1).
constexpr int64_t t1_body_stage(int64_t a, int64_t b, int64_t c) {
  if (a > b) std::swap(a, b);
  if (b > c) std::swap(b, c);
  if (a > b) std::swap(a, b);
  return std::max({a + 3, b + 2, c + 1});
}

struct Node {
  GateType type = GateType::Const0;
  std::array<NodeId, 3> fanins{kNullNode, kNullNode, kNullNode};
  uint8_t num_fanins = 0;
  T1PortFn port = T1PortFn::Sum;  ///< meaningful only for T1Port nodes
  bool dead = false;

  NodeId fanin(unsigned i) const { return fanins[i]; }
};

/// A gate-level network. Nodes are stored in creation order; the builders
/// create fanins before fanouts, but point edits (`set_fanin`, `substitute`)
/// may redirect a node to a later one, so `topo_order()` is the order to rely
/// on. Passes may mark nodes dead, and `cleanup()` produces a compacted copy.
class Network {
public:
  Network() = default;
  explicit Network(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  // -- Construction -----------------------------------------------------------

  NodeId add_pi(const std::string& name = {});
  NodeId get_const0();
  NodeId get_const1();

  /// Generic strashed gate constructor with constant folding and trivial
  /// simplifications; \p fanins size must equal `gate_arity(type)`.
  NodeId add_gate(GateType type, const std::vector<NodeId>& fanins);

  NodeId add_buf(NodeId a) { return add_gate(GateType::Buf, {a}); }
  NodeId add_not(NodeId a) { return add_gate(GateType::Not, {a}); }
  NodeId add_and(NodeId a, NodeId b) { return add_gate(GateType::And2, {a, b}); }
  NodeId add_or(NodeId a, NodeId b) { return add_gate(GateType::Or2, {a, b}); }
  NodeId add_xor(NodeId a, NodeId b) { return add_gate(GateType::Xor2, {a, b}); }
  NodeId add_nand(NodeId a, NodeId b) { return add_gate(GateType::Nand2, {a, b}); }
  NodeId add_nor(NodeId a, NodeId b) { return add_gate(GateType::Nor2, {a, b}); }
  NodeId add_xnor(NodeId a, NodeId b) { return add_gate(GateType::Xnor2, {a, b}); }
  NodeId add_maj(NodeId a, NodeId b, NodeId c) { return add_gate(GateType::Maj3, {a, b, c}); }
  NodeId add_xor3(NodeId a, NodeId b, NodeId c) { return add_gate(GateType::Xor3, {a, b, c}); }
  NodeId add_dff(NodeId a) { return add_gate(GateType::Dff, {a}); }

  /// Adds a gate verbatim: no structural hashing, no folding. For passes that
  /// materialize physical netlists (DFF insertion) where two structurally
  /// identical cells may legitimately exist at different clock stages.
  NodeId add_raw_gate(GateType type, const std::vector<NodeId>& fanins);

  /// Adds a T1 body with the given three data fanins (not strashed: T1 cells
  /// are stateful resources placed deliberately by the detection pass).
  NodeId add_t1(NodeId a, NodeId b, NodeId c);
  /// Adds (or reuses) the tap node for output \p fn of T1 body \p body.
  NodeId add_t1_port(NodeId body, T1PortFn fn);

  void add_po(NodeId node, const std::string& name = {});

  // -- Access -----------------------------------------------------------------

  std::size_t size() const { return nodes_.size(); }
  const Node& node(NodeId id) const { return nodes_[id]; }
  bool is_dead(NodeId id) const { return nodes_[id].dead; }

  std::size_t num_pis() const { return pis_.size(); }
  std::size_t num_pos() const { return pos_.size(); }
  const std::vector<NodeId>& pis() const { return pis_; }
  const std::vector<NodeId>& pos() const { return pos_; }
  NodeId pi(std::size_t i) const { return pis_[i]; }
  NodeId po(std::size_t i) const { return pos_[i]; }

  const std::string& pi_name(std::size_t i) const { return pi_names_[i]; }
  const std::string& po_name(std::size_t i) const { return po_names_[i]; }

  /// Number of live nodes of a given type.
  std::size_t count_of(GateType type) const;
  /// Number of live logic gates (everything except Const/Pi/T1Port taps).
  std::size_t num_gates() const;

  // -- Analysis ---------------------------------------------------------------

  /// Live nodes in topological order: a depth-first search from each live
  /// node in id order that emits fanins first. Creation order alone is not
  /// enough, because `set_fanin`, `substitute` and incremental `replace` can
  /// point a node at one created after it. On a network whose fanins all
  /// precede their fanouts the result is id order.
  std::vector<NodeId> topo_order() const;
  /// Fanout counts of live nodes (POs count as one fanout each).
  std::vector<uint32_t> fanout_counts() const;
  /// Explicit fanout lists of live nodes (PO fanouts not included).
  std::vector<std::vector<NodeId>> fanout_lists() const;
  /// Logic levels: PIs/consts at 0; every *clocked* cell is one level above
  /// its deepest fanin; passive cells (Buf taken as JTL, T1Port) inherit the
  /// fanin level. T1 bodies sit at `t1_body_stage` of their fanin levels.
  std::vector<uint32_t> levels() const;
  uint32_t depth() const;

  // -- Mutation ---------------------------------------------------------------

  /// Redirects all fanouts of \p oldNode (and PO references) to \p newNode.
  /// The old node is *not* marked dead automatically.
  void substitute(NodeId oldNode, NodeId newNode);
  void mark_dead(NodeId id) { nodes_[id].dead = true; }
  /// Undoes mark_dead (commit-guard rollback; see incr/incremental_view.hpp).
  void revive(NodeId id) { nodes_[id].dead = false; }

  /// Point edits for incremental substitution (incr/incremental_view.hpp
  /// performs `substitute` consumer-by-consumer through these): redirect one
  /// fanin slot / one PO reference. Like `substitute`, neither re-sorts
  /// commutative fanins nor updates structural-hashing state.
  void set_fanin(NodeId consumer, unsigned idx, NodeId to) {
    nodes_[consumer].fanins[idx] = to;
  }
  void set_po(std::size_t idx, NodeId node) { pos_[idx] = node; }

  /// Marks nodes unreachable from the POs dead. Returns how many died.
  std::size_t sweep_dangling();
  /// Returns a compacted copy (dead nodes removed, IDs renumbered in topo
  /// order). \p old_to_new, if given, receives the ID mapping.
  Network cleanup(std::vector<NodeId>* old_to_new = nullptr) const;

  // -- Word-parallel evaluation -----------------------------------------------

  /// Evaluates one gate on 64-bit simulation words.
  static uint64_t eval_word(GateType type, T1PortFn port, uint64_t a, uint64_t b, uint64_t c);

private:
  NodeId add_node_(Node n);
  std::optional<NodeId> try_fold_(GateType type, const std::vector<NodeId>& fanins);
  uint64_t strash_key_(GateType type, const std::array<NodeId, 3>& fanins,
                       uint8_t num_fanins, T1PortFn port) const;

  std::string name_;
  std::vector<Node> nodes_;
  std::vector<NodeId> pis_;
  std::vector<NodeId> pos_;
  std::vector<std::string> pi_names_;
  std::vector<std::string> po_names_;
  NodeId const0_ = kNullNode;
  NodeId const1_ = kNullNode;
  std::unordered_map<uint64_t, std::vector<NodeId>> strash_;
};

}  // namespace t1sfq
