#include "network/equivalence.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <map>
#include <unordered_map>

#include "network/aig.hpp"
#include "network/simulation.hpp"
#include "obs/metrics.hpp"

namespace t1sfq {

namespace {

/// Adds clauses forcing `y <=> AND(a, b)` etc. for each cell type.
void encode_gate(SatSolver& s, GateType type, T1PortFn port, Lit y, Lit a, Lit b, Lit c) {
  const auto and2 = [&](Lit out, Lit x, Lit z) {
    s.add_clause({negate(out), x});
    s.add_clause({negate(out), z});
    s.add_clause({out, negate(x), negate(z)});
  };
  const auto or2 = [&](Lit out, Lit x, Lit z) { and2(negate(out), negate(x), negate(z)); };
  const auto xor2 = [&](Lit out, Lit x, Lit z) {
    s.add_clause({negate(out), x, z});
    s.add_clause({negate(out), negate(x), negate(z)});
    s.add_clause({out, negate(x), z});
    s.add_clause({out, x, negate(z)});
  };
  const auto equal = [&](Lit out, Lit x) {
    s.add_clause({negate(out), x});
    s.add_clause({out, negate(x)});
  };
  const auto and3 = [&](Lit out, Lit x, Lit z, Lit w) {
    s.add_clause({negate(out), x});
    s.add_clause({negate(out), z});
    s.add_clause({negate(out), w});
    s.add_clause({out, negate(x), negate(z), negate(w)});
  };
  const auto xor3 = [&](Lit out, Lit x, Lit z, Lit w) {
    // out = x ^ z ^ w: 8 clauses over the odd-parity condition.
    for (unsigned mask = 0; mask < 8; ++mask) {
      const bool parity = ((mask & 1) + ((mask >> 1) & 1) + ((mask >> 2) & 1)) % 2;
      // Forbid assignments where parity(x,z,w) != out.
      s.add_clause({(mask & 1) ? negate(x) : x, (mask & 2) ? negate(z) : z,
                    (mask & 4) ? negate(w) : w, parity ? out : negate(out)});
    }
  };
  const auto maj3 = [&](Lit out, Lit x, Lit z, Lit w) {
    s.add_clause({negate(out), x, z});
    s.add_clause({negate(out), x, w});
    s.add_clause({negate(out), z, w});
    s.add_clause({out, negate(x), negate(z)});
    s.add_clause({out, negate(x), negate(w)});
    s.add_clause({out, negate(z), negate(w)});
  };

  switch (type) {
    case GateType::Buf:
    case GateType::Dff:
      equal(y, a);
      break;
    case GateType::Not:
      equal(y, negate(a));
      break;
    case GateType::And2:
      and2(y, a, b);
      break;
    case GateType::Or2:
      or2(y, a, b);
      break;
    case GateType::Xor2:
      xor2(y, a, b);
      break;
    case GateType::Nand2:
      and2(negate(y), a, b);
      break;
    case GateType::Nor2:
      or2(negate(y), a, b);
      break;
    case GateType::Xnor2:
      xor2(negate(y), a, b);
      break;
    case GateType::And3:
      and3(y, a, b, c);
      break;
    case GateType::Or3:
      and3(negate(y), negate(a), negate(b), negate(c));
      break;
    case GateType::Xor3:
      xor3(y, a, b, c);
      break;
    case GateType::Maj3:
      maj3(y, a, b, c);
      break;
    case GateType::T1:
      xor3(y, a, b, c);  // body literal carries the S function
      break;
    case GateType::T1Port:
      switch (port) {
        case T1PortFn::Sum: xor3(y, a, b, c); break;
        case T1PortFn::Carry: maj3(y, a, b, c); break;
        case T1PortFn::Or: and3(negate(y), negate(a), negate(b), negate(c)); break;
        case T1PortFn::CarryN: maj3(negate(y), a, b, c); break;
        case T1PortFn::OrN: and3(y, negate(a), negate(b), negate(c)); break;
      }
      break;
    default:
      assert(false && "encode_gate: not a gate");
  }
}

}  // namespace

std::vector<Lit> encode_network(const Network& net, SatSolver& solver,
                                std::vector<Lit>& pi_lits) {
  if (pi_lits.empty()) {
    for (std::size_t i = 0; i < net.num_pis(); ++i) {
      pi_lits.push_back(pos_lit(solver.new_var()));
    }
  }
  assert(pi_lits.size() == net.num_pis());

  std::vector<Lit> lit(net.size(), 0);
  for (std::size_t i = 0; i < net.num_pis(); ++i) {
    lit[net.pi(i)] = pi_lits[i];
  }
  for (const NodeId id : net.topo_order()) {
    const Node& n = net.node(id);
    switch (n.type) {
      case GateType::Pi:
        break;  // already assigned
      case GateType::Const0: {
        const Lit l = pos_lit(solver.new_var());
        solver.add_clause({negate(l)});
        lit[id] = l;
        break;
      }
      case GateType::Const1: {
        const Lit l = pos_lit(solver.new_var());
        solver.add_clause({l});
        lit[id] = l;
        break;
      }
      case GateType::T1Port: {
        const Node& body = net.node(n.fanin(0));
        const Lit y = pos_lit(solver.new_var());
        encode_gate(solver, GateType::T1Port, n.port, y, lit[body.fanin(0)],
                    lit[body.fanin(1)], lit[body.fanin(2)]);
        lit[id] = y;
        break;
      }
      default: {
        const Lit y = pos_lit(solver.new_var());
        const Lit a = n.num_fanins > 0 ? lit[n.fanin(0)] : 0;
        const Lit b = n.num_fanins > 1 ? lit[n.fanin(1)] : 0;
        const Lit c = n.num_fanins > 2 ? lit[n.fanin(2)] : 0;
        encode_gate(solver, n.type, n.port, y, a, b, c);
        lit[id] = y;
      }
    }
  }
  return lit;
}

namespace {

using ALit = Aig::Lit;

// -- Lowering: both networks into one strashed AIG ----------------------------

/// XOR with the complements stripped from its inputs (and pushed onto the
/// output), so XNOR, XOR of an inverted input and XOR itself share one node.
ALit lower_xor(Aig& g, ALit x, ALit y) {
  const bool flip = Aig::lit_compl(x) != Aig::lit_compl(y);
  return g.add_xor(x & ~ALit{1}, y & ~ALit{1}) ^ (flip ? 1u : 0u);
}

/// Three-input cells take their fanins in sorted order, so every fanin
/// permutation of a cell lowers onto the same nodes.
std::array<ALit, 3> sorted3(ALit x, ALit y, ALit z) {
  std::array<ALit, 3> v{x, y, z};
  std::sort(v.begin(), v.end());
  return v;
}

ALit lower_and3(Aig& g, ALit x, ALit y, ALit z) {
  const auto v = sorted3(x, y, z);
  return g.add_and(g.add_and(v[0], v[1]), v[2]);
}

ALit lower_or3(Aig& g, ALit x, ALit y, ALit z) {
  return Aig::lit_not(lower_and3(g, Aig::lit_not(x), Aig::lit_not(y), Aig::lit_not(z)));
}

ALit lower_xor3(Aig& g, ALit x, ALit y, ALit z) {
  const auto v = sorted3(x & ~ALit{1}, y & ~ALit{1}, z & ~ALit{1});
  const ALit parity = (x ^ y ^ z) & 1;
  return lower_xor(g, lower_xor(g, v[0], v[1]), v[2]) ^ parity;
}

ALit lower_maj3(Aig& g, ALit x, ALit y, ALit z) {
  const auto v = sorted3(x, y, z);
  return g.add_maj(v[0], v[1], v[2]);
}

ALit lower_cell(Aig& g, GateType type, T1PortFn port, ALit a, ALit b, ALit c) {
  switch (type) {
    case GateType::Buf:
    case GateType::Dff:
      return a;
    case GateType::Not:
      return Aig::lit_not(a);
    case GateType::And2:
      return g.add_and(a, b);
    case GateType::Or2:
      return g.add_or(a, b);
    case GateType::Xor2:
      return lower_xor(g, a, b);
    case GateType::Nand2:
      return Aig::lit_not(g.add_and(a, b));
    case GateType::Nor2:
      return Aig::lit_not(g.add_or(a, b));
    case GateType::Xnor2:
      return Aig::lit_not(lower_xor(g, a, b));
    case GateType::And3:
      return lower_and3(g, a, b, c);
    case GateType::Or3:
      return lower_or3(g, a, b, c);
    case GateType::Xor3:
    case GateType::T1:  // the body literal carries the S function
      return lower_xor3(g, a, b, c);
    case GateType::Maj3:
      return lower_maj3(g, a, b, c);
    case GateType::T1Port:
      switch (port) {
        case T1PortFn::Sum: return lower_xor3(g, a, b, c);
        case T1PortFn::Carry: return lower_maj3(g, a, b, c);
        case T1PortFn::Or: return lower_or3(g, a, b, c);
        case T1PortFn::CarryN: return Aig::lit_not(lower_maj3(g, a, b, c));
        case T1PortFn::OrN: return Aig::lit_not(lower_or3(g, a, b, c));
      }
      break;
    default:
      break;
  }
  assert(false && "lower_cell: not a gate");
  return Aig::kFalse;
}

/// Lowers \p net into \p g over the shared PI literals; returns the literal
/// of every PO.
std::vector<ALit> lower_network(const Network& net, Aig& g, const std::vector<ALit>& pis) {
  std::vector<ALit> lit(net.size(), Aig::kFalse);
  for (std::size_t i = 0; i < net.num_pis(); ++i) {
    lit[net.pi(i)] = pis[i];
  }
  for (const NodeId id : net.topo_order()) {
    const Node& n = net.node(id);
    switch (n.type) {
      case GateType::Pi:
        break;
      case GateType::Const0:
        lit[id] = Aig::kFalse;
        break;
      case GateType::Const1:
        lit[id] = Aig::kTrue;
        break;
      case GateType::T1Port: {
        const Node& body = net.node(n.fanin(0));
        lit[id] = lower_cell(g, GateType::T1Port, n.port, lit[body.fanin(0)],
                             lit[body.fanin(1)], lit[body.fanin(2)]);
        break;
      }
      default:
        lit[id] = lower_cell(g, n.type, n.port, n.num_fanins > 0 ? lit[n.fanin(0)] : 0,
                             n.num_fanins > 1 ? lit[n.fanin(1)] : 0,
                             n.num_fanins > 2 ? lit[n.fanin(2)] : 0);
    }
  }
  std::vector<ALit> pos;
  pos.reserve(net.num_pos());
  for (const NodeId po : net.pos()) {
    pos.push_back(lit[po]);
  }
  return pos;
}

// -- SAT sweeping ---------------------------------------------------------------

/// The pair-proof windows, tried in order, each of at most `cap` AND nodes.
/// Most merges are local rewrites over shared logic, which the first window
/// proves by expanding only the nodes in exactly one of the two cones (the
/// shared ones stay free inputs); the second expands the union cone, where
/// a proof may need relations among the shared nodes and a refutation needs
/// a frontier of PIs.
struct Window {
  bool difference;  ///< shared cone nodes stay on the frontier
  std::size_t cap;
};
constexpr Window kWindows[] = {{true, 256}, {false, 256}};
/// Conflict cap per pair proof (tighter than the caller's budget when that is
/// larger or unlimited): a merge is optional work, the output miters are not.
constexpr uint64_t kPairConflicts = 1000;
constexpr uint32_t kNoClass = ~uint32_t{0};

uint64_t mix64(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  return h ^ (h >> 33);
}

/// Tseitin clauses for `z <=> l0 & l1`.
void add_and_clauses(SatSolver& s, Lit z, Lit l0, Lit l1) {
  s.add_clause({negate(z), l0});
  s.add_clause({negate(z), l1});
  s.add_clause({z, negate(l0), negate(l1)});
}

/// Work counters of one check, flushed to the registry once at its end.
struct SweepCounters {
  uint64_t candidates = 0;    ///< pair proofs tried
  uint64_t merges = 0;        ///< pair proofs that merged a node
  uint64_t refuted = 0;       ///< pair proofs that found a real difference
  uint64_t inconclusive = 0;  ///< SAT on a truncated window, or a budget-out
  uint64_t po_miters = 0;     ///< outputs the merging did not close

  void flush() const {
    obs::count("cec.checks");
    obs::count("cec.candidates", candidates);
    obs::count("cec.merges", merges);
    obs::count("cec.refuted", refuted);
    obs::count("cec.inconclusive", inconclusive);
    obs::count("cec.po_miters", po_miters);
  }
};

/// SAT sweeping after Mishchenko et al., "FRAIGs: A unifying representation
/// for logic synthesis and verification" (2005). Both networks are lowered
/// into one strashed AIG `g_` over shared PIs; its nodes are grouped into
/// candidate classes by a phase-normalized simulation signature; `f_` is then
/// rebuilt from `g_` bottom-up, and each node is merged into its class
/// representative once a pair proof shows them equal. Every `f_` literal is
/// functionally equal to the `g_` node it stands for, so an output pair that
/// collapses to one literal is proved, and only the rest get a miter.
class Sweeper {
public:
  Sweeper(const Network& a, const Network& b, unsigned sim_rounds, uint64_t budget)
      : budget_(budget),
        pair_budget_(budget == 0 ? kPairConflicts : std::min(budget, kPairConflicts)) {
    std::vector<ALit> pis;
    for (std::size_t i = 0; i < a.num_pis(); ++i) {
      pis.push_back(g_.add_pi());
      f_.add_pi();
    }
    pos_a_ = lower_network(a, g_, pis);
    pos_b_ = lower_network(b, g_, pis);
    classify(std::max(1u, sim_rounds));
  }

  EquivalenceCheck run() {
    sweep();
    EquivalenceCheck out = prove_outputs();
    counters_.flush();
    return out;
  }

private:
  /// Truncated = SAT on a window whose frontier holds more than PIs, which
  /// may be a spurious difference; Open = no merge and no refutation.
  enum class PairVerdict { Equal, Differ, Truncated, Open };

  ALit map_lit(ALit g_lit) const {
    return map_[Aig::lit_node(g_lit)] ^ (g_lit & 1);
  }

  /// Groups `g_` nodes by phase-normalized signature: bit 0 of the first
  /// word (the all-zero pattern) decides the phase, so a node and its
  /// complement land in one class.
  void classify(unsigned words) {
    const std::size_t n = g_.num_nodes();
    std::vector<uint64_t> sig(n, 0);
    phase_.assign(n, 0);
    const auto patterns = random_pattern_words(g_.num_pis(), words);
    for (unsigned w = 0; w < words; ++w) {
      const auto value = g_.simulate_words(patterns[w]);
      for (std::size_t i = 0; i < n; ++i) {
        if (w == 0) {
          phase_[i] = value[i] & 1;
        }
        sig[i] = mix64(sig[i] ^ (phase_[i] ? ~value[i] : value[i]));
      }
    }
    std::unordered_map<uint64_t, uint32_t> by_sig;
    cls_.assign(n, kNoClass);
    for (uint32_t i = 0; i < n; ++i) {
      cls_[i] = by_sig.try_emplace(sig[i], static_cast<uint32_t>(by_sig.size())).first->second;
    }
    settle_classes(by_sig.size());
  }

  /// Given \p num classes, recomputes each one's representative (its lowest
  /// member, so it is swept first), drops singletons and rebuilds `classed_`.
  void settle_classes(std::size_t num) {
    std::vector<uint32_t> size(num, 0);
    rep_.assign(num, kNoClass);
    for (uint32_t i = 0; i < cls_.size(); ++i) {
      if (cls_[i] == kNoClass) continue;
      if (size[cls_[i]]++ == 0) rep_[cls_[i]] = i;
    }
    classed_.clear();
    for (uint32_t i = 0; i < cls_.size(); ++i) {
      if (cls_[i] == kNoClass) continue;
      if (size[cls_[i]] < 2) {
        cls_[i] = kNoClass;
      } else {
        classed_.push_back(i);
      }
    }
  }

  /// Splits every class along a counterexample: pattern 0 is \p cex itself,
  /// the others flip one of \p flip_pis each. Nodes proved equal never split.
  void refine(const std::vector<bool>& cex, const std::vector<uint32_t>& flip_pis) {
    std::vector<uint64_t> words(g_.num_pis());
    for (std::size_t i = 0; i < words.size(); ++i) {
      words[i] = cex[i] ? ~uint64_t{0} : 0;
    }
    for (unsigned bit = 1; bit < 64 && !flip_pis.empty(); ++bit) {
      words[flip_pis[(bit - 1) % flip_pis.size()]] ^= uint64_t{1} << bit;
    }
    const auto value = g_.simulate_words(words);
    // Exact (class, value) keys: a split may never be lost to a collision,
    // or a refuted node would stay with its representative.
    std::map<std::pair<uint32_t, uint64_t>, uint32_t> split;
    for (const uint32_t i : classed_) {
      const uint64_t v = phase_[i] ? ~value[i] : value[i];
      cls_[i] = split.try_emplace({cls_[i], v}, static_cast<uint32_t>(split.size())).first->second;
    }
    settle_classes(split.size());
  }

  /// Builds `f_` bottom-up, merging each AND node into its representative.
  void sweep() {
    map_.assign(g_.num_nodes(), Aig::kFalse);
    for (uint32_t i = 0; i < g_.num_pis(); ++i) {
      map_[g_.pis()[i]] = Aig::make_lit(f_.pis()[i], false);
    }
    std::vector<bool> cex;
    std::vector<uint32_t> window_pis;
    for (uint32_t n = 1; n < g_.num_nodes(); ++n) {
      if (!g_.is_and(n)) {
        continue;
      }
      const ALit f = f_.add_and(map_lit(g_.fanin0(n)), map_lit(g_.fanin1(n)));
      map_[n] = f;
      // Each refutation splits n from its representative, so this loop ends.
      while (cls_[n] != kNoClass) {
        const uint32_t r = rep_[cls_[n]];
        if (r == n) {
          break;  // n represents its class
        }
        const ALit target = map_[r] ^ (phase_[n] != phase_[r] ? 1u : 0u);
        if (f == target) {
          map_[n] = target;  // structurally merged already
          break;
        }
        ++counters_.candidates;
        const PairVerdict v = prove_pair(f, target, cex, window_pis);
        if (v == PairVerdict::Equal) {
          ++counters_.merges;
          map_[n] = target;
          break;
        }
        if (v == PairVerdict::Open) {
          ++counters_.inconclusive;
          break;
        }
        ++counters_.refuted;
        refine(cex, window_pis);
        assert(cls_[n] == kNoClass || rep_[cls_[n]] != r);
      }
    }
  }

  /// Proves `x == y` on the windows of `kWindows` in turn, each a fresh
  /// solver over AND nodes of their union fanin cone in `f_`, expanded in
  /// decreasing node id. A window's frontier nodes are free inputs, so UNSAT
  /// is a proof, while SAT is a real difference only when the frontier holds
  /// PIs alone; SAT on a truncated window tries the next one.
  /// On Differ, \p cex receives the PI assignment and \p pis the PIs it set.
  PairVerdict prove_pair(ALit x, ALit y, std::vector<bool>& cex, std::vector<uint32_t>& pis) {
    for (const Window& w : kWindows) {
      const PairVerdict v = prove_in_window(x, y, w, cex, pis);
      if (v != PairVerdict::Truncated) {
        return v;
      }
    }
    return PairVerdict::Open;
  }

  PairVerdict prove_in_window(ALit x, ALit y, const Window& w, std::vector<bool>& cex,
                              std::vector<uint32_t>& pis) {
    const std::size_t n = f_.num_nodes();
    if (var_.size() < n) {
      var_.resize(n, 0);
      stamp_.resize(n, 0);
      side_.resize(n, 0);
    }
    ++epoch_;
    SatSolver s;
    std::vector<uint32_t> heap;
    const auto visit = [&](uint32_t node, uint8_t side) {
      if (stamp_[node] != epoch_) {
        stamp_[node] = epoch_;
        side_[node] = 0;
        heap.push_back(node);
        std::push_heap(heap.begin(), heap.end());
      }
      side_[node] |= side;
    };
    visit(Aig::lit_node(x), 1);
    visit(Aig::lit_node(y), 2);
    std::vector<uint32_t> ands;
    bool truncated = false;
    pis.clear();
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end());
      const uint32_t u = heap.back();
      heap.pop_back();
      var_[u] = s.new_var();
      // Every window node that reaches u has a higher id and was popped
      // before it, so side_[u] is final here.
      if (f_.is_and(u) && ands.size() < w.cap && !(w.difference && side_[u] == 3)) {
        ands.push_back(u);
        visit(Aig::lit_node(f_.fanin0(u)), side_[u]);
        visit(Aig::lit_node(f_.fanin1(u)), side_[u]);
      } else if (f_.is_and(u)) {
        truncated = true;
      } else if (f_.is_const(u)) {
        s.add_clause({neg_lit(var_[u])});
      } else {
        pis.push_back(u - 1);  // f_ creates its PIs first: node i + 1 is PI i
      }
    }
    const auto sat_lit = [&](ALit l) { return pos_lit(var_[Aig::lit_node(l)]) ^ (l & 1); };
    for (const uint32_t u : ands) {
      add_and_clauses(s, pos_lit(var_[u]), sat_lit(f_.fanin0(u)), sat_lit(f_.fanin1(u)));
    }
    s.add_clause({sat_lit(x), sat_lit(y)});
    s.add_clause({negate(sat_lit(x)), negate(sat_lit(y))});
    const SatResult r = s.solve({}, pair_budget_);
    if (r == SatResult::Unsat) {
      return PairVerdict::Equal;
    }
    if (r == SatResult::Unknown) {
      return PairVerdict::Open;
    }
    if (truncated) {
      return PairVerdict::Truncated;
    }
    cex.assign(f_.num_pis(), false);
    for (const uint32_t pi : pis) {
      cex[pi] = s.model_value(var_[pi + 1]);
    }
    return PairVerdict::Differ;
  }

  /// Full-cone miters, on one incremental solver, for the outputs that did
  /// not collapse to one literal.
  EquivalenceCheck prove_outputs() {
    EquivalenceCheck out;
    SatSolver s;
    std::vector<uint32_t> var(f_.num_nodes(), 0);  // var + 1; 0 = not encoded
    std::vector<uint32_t> stack, cone;
    const auto encode = [&](ALit root) {
      stack.assign(1, Aig::lit_node(root));
      cone.clear();
      while (!stack.empty()) {
        const uint32_t u = stack.back();
        stack.pop_back();
        if (var[u] != 0) continue;
        var[u] = 1;  // queued
        cone.push_back(u);
        if (f_.is_and(u)) {
          stack.push_back(Aig::lit_node(f_.fanin0(u)));
          stack.push_back(Aig::lit_node(f_.fanin1(u)));
        }
      }
      std::sort(cone.begin(), cone.end());  // node ids are topological
      const auto sat_lit = [&](ALit l) { return pos_lit(var[Aig::lit_node(l)] - 1) ^ (l & 1); };
      for (const uint32_t u : cone) {
        var[u] = s.new_var() + 1;
        const Lit z = pos_lit(var[u] - 1);
        if (f_.is_const(u)) {
          s.add_clause({negate(z)});
        } else if (f_.is_and(u)) {
          add_and_clauses(s, z, sat_lit(f_.fanin0(u)), sat_lit(f_.fanin1(u)));
        }
      }
      return sat_lit(root);
    };
    for (std::size_t p = 0; p < pos_a_.size(); ++p) {
      const ALit x = map_lit(pos_a_[p]);
      const ALit y = map_lit(pos_b_[p]);
      if (x == y) {
        continue;  // closed by merging
      }
      ++counters_.po_miters;
      const Lit lx = encode(x);
      const Lit ly = encode(y);
      const Lit diff = pos_lit(s.new_var());
      s.add_clause({negate(diff), lx, ly});
      s.add_clause({negate(diff), negate(lx), negate(ly)});
      s.add_clause({diff, negate(lx), ly});
      s.add_clause({diff, lx, negate(ly)});
      const SatResult r = s.solve({diff}, budget_);
      if (r == SatResult::Unsat) {
        s.add_clause({negate(diff)});
        continue;
      }
      if (r == SatResult::Unknown) {
        ++counters_.inconclusive;
        out.result = EquivalenceResult::Unknown;
        return out;
      }
      out.result = EquivalenceResult::NotEquivalent;
      out.failing_output = p;
      for (const uint32_t pi : f_.pis()) {
        out.counterexample.push_back(var[pi] != 0 && s.model_value(var[pi] - 1));
      }
      return out;
    }
    out.result = EquivalenceResult::Equivalent;
    return out;
  }

  uint64_t budget_;
  uint64_t pair_budget_;
  Aig g_;                   ///< both networks, strashed over shared PIs
  std::vector<ALit> pos_a_, pos_b_;
  std::vector<uint8_t> phase_;     ///< per g_ node: value on the all-zero pattern
  std::vector<uint32_t> cls_;      ///< per g_ node: candidate class, or kNoClass
  std::vector<uint32_t> rep_;      ///< per class: lowest member
  std::vector<uint32_t> classed_;  ///< g_ nodes with a class, ascending
  Aig f_;                   ///< the swept graph
  std::vector<ALit> map_;   ///< per g_ node: its f_ literal
  std::vector<uint32_t> var_, stamp_;  ///< pair-proof scratch, per f_ node
  std::vector<uint8_t> side_;  ///< pair-proof scratch: reached from x (1), y (2) or both
  uint32_t epoch_ = 0;
  SweepCounters counters_;
};

EquivalenceCheck sweep_equivalence(const Network& a, const Network& b, unsigned sim_rounds,
                                   uint64_t conflict_budget) {
  if (a.num_pis() != b.num_pis() || a.num_pos() != b.num_pos()) {
    EquivalenceCheck out;
    out.result = EquivalenceResult::NotEquivalent;
    return out;
  }
  return Sweeper(a, b, sim_rounds, conflict_budget).run();
}

}  // namespace

EquivalenceCheck check_equivalence_sat(const Network& a, const Network& b,
                                       uint64_t conflict_budget) {
  return sweep_equivalence(a, b, /*sim_rounds=*/8, conflict_budget);
}

EquivalenceCheck check_equivalence(const Network& a, const Network& b, unsigned sim_rounds,
                                   uint64_t conflict_budget) {
  if (a.num_pis() != b.num_pis() || a.num_pos() != b.num_pos()) {
    EquivalenceCheck out;
    out.result = EquivalenceResult::NotEquivalent;
    return out;
  }
  if (auto m = random_simulation_mismatch(a, b, sim_rounds)) {
    EquivalenceCheck out;
    out.result = EquivalenceResult::NotEquivalent;
    out.counterexample = std::move(m->inputs);
    out.failing_output = m->output;
    return out;
  }
  return sweep_equivalence(a, b, sim_rounds, conflict_budget);
}

}  // namespace t1sfq
