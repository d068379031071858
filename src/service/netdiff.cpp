#include "service/netdiff.hpp"

#include <algorithm>

#include "network/simulation.hpp"

namespace t1sfq::service {

namespace {

uint64_t splitmix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

/// Key grouping nodes that could possibly correspond: signature + cell kind.
uint64_t match_key(uint64_t sig, const Node& n) {
  uint64_t h = mix(sig, static_cast<uint64_t>(n.type));
  h = mix(h, static_cast<uint64_t>(n.port));
  return mix(h, n.num_fanins);
}

bool same_kind(const Node& a, const Node& b) {
  return a.type == b.type && a.num_fanins == b.num_fanins &&
         (a.type != GateType::T1Port || a.port == b.port);
}

/// Nodes grouped by a 64-bit key: (key, node) pairs sorted, so the nodes of
/// one key are a contiguous run in ascending id order.
class KeyIndex {
 public:
  void add(uint64_t key, NodeId n) { entries_.push_back({key, n}); }
  void finish() { std::sort(entries_.begin(), entries_.end()); }

  /// Calls \p f on every node filed under \p key, in ascending id order.
  template <typename F>
  void for_each(uint64_t key, F&& f) const {
    auto it = std::lower_bound(entries_.begin(), entries_.end(),
                               std::pair<uint64_t, NodeId>{key, 0});
    for (; it != entries_.end() && it->first == key; ++it) f(it->second);
  }

 private:
  std::vector<std::pair<uint64_t, NodeId>> entries_;
};

}  // namespace

std::vector<uint64_t> node_signatures(const Network& net) {
  constexpr unsigned kSimWords = 8;
  const std::vector<NodeId> order = net.topo_order();
  std::vector<uint64_t> acc(net.size(), 0xcbf29ce484222325ull);
  std::vector<uint64_t> words(net.num_pis());
  uint64_t state = 0x0d1ff5eed;  // fixed seed: both sides see the same patterns
  for (unsigned w = 0; w < kSimWords; ++w) {
    for (auto& word : words) word = splitmix64(state);
    const std::vector<uint64_t> values = simulate_all_words(net, words, order);
    for (NodeId id = 0; id < net.size(); ++id) {
      acc[id] = mix(acc[id], values[id]);
    }
  }
  return acc;
}

NetDiff diff_networks(const Network& base, const Network& edited) {
  return diff_networks(base, node_signatures(base), edited, node_signatures(edited));
}

NetDiff diff_networks(const Network& base, const std::vector<uint64_t>& sig_old,
                      const Network& edited, const std::vector<uint64_t>& sig_new) {
  NetDiff d;
  d.old_to_new.assign(base.size(), kNullNode);
  d.new_to_old.assign(edited.size(), kNullNode);
  if (base.num_pis() != edited.num_pis() || base.num_pos() != edited.num_pos()) {
    return d;
  }
  for (std::size_t i = 0; i < base.num_pis(); ++i) {
    if (base.pi_name(i) != edited.pi_name(i)) return d;
  }
  d.comparable = true;

  const auto match = [&](NodeId o, NodeId n) {
    d.old_to_new[o] = n;
    d.new_to_old[n] = o;
  };
  const auto unmatch = [&](NodeId o) {
    d.new_to_old[d.old_to_new[o]] = kNullNode;
    d.old_to_new[o] = kNullNode;
  };

  // PIs correspond by index — the edit model fixes the interface.
  for (std::size_t i = 0; i < base.num_pis(); ++i) {
    match(base.pi(i), edited.pi(i));
  }

  // --- Signature-anchored candidate matching --------------------------------
  KeyIndex buckets;
  for (NodeId n = 0; n < edited.size(); ++n) {
    if (edited.is_dead(n) || edited.node(n).type == GateType::Pi) continue;
    buckets.add(match_key(sig_new[n], edited.node(n)), n);
  }
  buckets.finish();

  // Old nodes in id order: fanins are visited before fanouts, so the
  // fanin-correspondence score below sees settled matches.
  for (NodeId o = 0; o < base.size(); ++o) {
    if (base.is_dead(o) || base.node(o).type == GateType::Pi) continue;
    const Node& no = base.node(o);
    NodeId best = kNullNode;
    int best_score = -1;
    buckets.for_each(match_key(sig_old[o], no), [&](NodeId n) {
      if (d.new_to_old[n] != kNullNode) return;
      const Node& nn = edited.node(n);
      if (!same_kind(no, nn)) return;  // hash-collision guard
      int score = 0;
      for (uint8_t s = 0; s < no.num_fanins; ++s) {
        if (d.old_to_new[no.fanin(s)] == nn.fanin(s)) ++score;
      }
      if (score > best_score) {
        best_score = score;
        best = n;
      }
    });
    if (best != kNullNode) match(o, best);
  }

  // --- Structural match propagation -----------------------------------------
  // A function edit changes the simulated values of its entire transitive
  // fanout, so signature matching strands the whole downstream cone as
  // unmatched. Structure rescues it: walking old nodes in id (= topo) order
  // with the correspondence Φ (matches extended across replacement bridges),
  // an unmatched old node whose Φ-image fanins identify exactly one unmatched
  // new node of the same kind is the *same cell* — only its input values
  // changed — and is matched. A unique candidate of a different kind is the
  // edited cell itself: Φ bridges through it so its consumers keep
  // propagating, while the pair stays unmatched (dirty + dead + replacement).
  {
    std::vector<NodeId> phi = d.old_to_new;
    const auto fanin_key = [](const Node& n) {
      uint64_t h = 0x9e3779b97f4a7c15ull;
      h = mix(h, n.num_fanins);
      for (uint8_t s = 0; s < n.num_fanins; ++s) h = mix(h, n.fanin(s));
      return h;
    };
    KeyIndex by_fanins;
    for (NodeId n = 0; n < edited.size(); ++n) {
      if (edited.is_dead(n) || d.new_to_old[n] != kNullNode) continue;
      const Node& nn = edited.node(n);
      if (nn.type == GateType::Pi || nn.num_fanins == 0) continue;
      by_fanins.add(fanin_key(nn), n);
    }
    by_fanins.finish();
    for (NodeId o = 0; o < base.size(); ++o) {
      if (base.is_dead(o)) continue;
      if (d.old_to_new[o] != kNullNode) {
        phi[o] = d.old_to_new[o];
        continue;
      }
      const Node& no = base.node(o);
      if (no.type == GateType::Pi || no.num_fanins == 0) continue;
      Node image = no;  // the fanin vector this node has on the edited side
      bool determined = true;
      for (uint8_t s = 0; determined && s < no.num_fanins; ++s) {
        const NodeId f = phi[no.fanin(s)];
        if (f == kNullNode) determined = false;
        image.fanins[s] = f;
      }
      if (!determined) continue;
      NodeId same = kNullNode, other = kNullNode;
      unsigned same_count = 0, other_count = 0;
      by_fanins.for_each(fanin_key(image), [&](NodeId n) {
        if (d.new_to_old[n] != kNullNode) return;
        const Node& nn = edited.node(n);
        if (nn.num_fanins != no.num_fanins) return;
        bool exact = true;
        for (uint8_t s = 0; exact && s < no.num_fanins; ++s) {
          exact = nn.fanin(s) == image.fanins[s];
        }
        if (!exact) return;
        if (same_kind(no, nn)) {
          same = n;
          ++same_count;
        } else {
          other = n;
          ++other_count;
        }
      });
      if (same_count == 1) {
        match(o, same);
        phi[o] = same;
      } else if (same_count == 0 && other_count == 1) {
        phi[o] = other;  // the edit itself: bridge, stays a replacement pair
      }
    }
  }

  // --- Structural verification to a fixed point -----------------------------
  // A surviving pair must agree on kind, and every fanin/PO edge must be a
  // matched correspondence or a single consistent replacement per source.
  std::vector<NodeId> repl_target;
  for (bool changed = true; changed;) {
    changed = false;
    repl_target.assign(base.size(), kNullNode);
    for (NodeId o = 0; o < base.size(); ++o) {
      const NodeId n = d.old_to_new[o];
      if (base.is_dead(o) || n == kNullNode) continue;
      const Node& no = base.node(o);
      if (no.type == GateType::Pi) continue;
      const Node& nn = edited.node(n);
      bool ok = same_kind(no, nn);
      for (uint8_t s = 0; ok && s < no.num_fanins; ++s) {
        const NodeId fo = no.fanin(s);
        const NodeId fn = nn.fanin(s);
        if (d.old_to_new[fo] == fn) continue;
        if (d.old_to_new[fo] == kNullNode) {
          if (repl_target[fo] == kNullNode) {
            repl_target[fo] = fn;
          } else if (repl_target[fo] != fn) {
            ok = false;  // one source cannot be rerouted to two targets
          }
        } else {
          ok = false;  // fanin moved between surviving nodes
        }
      }
      if (!ok) {
        unmatch(o);
        changed = true;
      }
    }
    if (changed) continue;  // demotions invalidate this round's replacements

    d.po_reroute = false;
    for (std::size_t i = 0; i < base.num_pos(); ++i) {
      const NodeId po_old = base.po(i);
      const NodeId po_new = edited.po(i);
      if (d.old_to_new[po_old] == po_new) continue;
      if (d.old_to_new[po_old] == kNullNode) {
        if (repl_target[po_old] == kNullNode) {
          repl_target[po_old] = po_new;
        } else if (repl_target[po_old] != po_new) {
          d.po_reroute = true;
        }
      } else {
        d.po_reroute = true;  // driver survives but this PO left it
      }
    }
  }

  for (NodeId n = 0; n < edited.size(); ++n) {
    if (!edited.is_dead(n) && d.new_to_old[n] == kNullNode) {
      d.dirty_new.push_back(n);
    }
  }
  for (NodeId o = 0; o < base.size(); ++o) {
    if (!base.is_dead(o) && d.old_to_new[o] == kNullNode) {
      d.dead_old.push_back(o);
      if (repl_target[o] != kNullNode) {
        d.replacements.push_back({o, repl_target[o]});
      }
    }
  }
  return d;
}

}  // namespace t1sfq::service
