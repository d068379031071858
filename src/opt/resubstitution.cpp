#include "opt/resubstitution.hpp"

#include <algorithm>
#include <random>
#include <unordered_map>
#include <unordered_set>

#include "cost/cost_delta.hpp"
#include "network/equivalence.hpp"
#include "network/mffc.hpp"
#include "network/simulation.hpp"
#include "obs/metrics.hpp"
#include "solver/sat.hpp"

namespace t1sfq {

namespace {

uint64_t sig_hash(const uint64_t* words, unsigned count, bool invert) {
  uint64_t h = 14695981039346656037ULL;
  for (unsigned i = 0; i < count; ++i) {
    h ^= invert ? ~words[i] : words[i];
    h *= 1099511628211ULL;
  }
  return h;
}

/// Signature words per node (64 random patterns each).
constexpr unsigned kSimWords = 8;
/// SAT conflict budget of one resubstitution proof.
constexpr uint64_t kSatConflictBudget = 20000;

bool sig_equal(const uint64_t* a, const uint64_t* b, unsigned count, bool invert) {
  for (unsigned i = 0; i < count; ++i) {
    if (a[i] != (invert ? ~b[i] : b[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::size_t ResubstitutionPass::run(Network& net) {
  net.sweep_dangling();
  net = net.cleanup();  // ids ascend in topo order: donors below targets are never in the TFO
  const std::size_t n0 = net.size();

  // Unified JJ pricing: gate bodies + clock shares + splitters + the
  // shared-spine DFF model, all through the incremental evaluator. Commits
  // land through the view; no O(n) refresh per commit.
  IncrementalView view(net, model_);
  view.set_full_recompute(!params_.incremental);
  CostDelta cd(view);

  // Word-parallel signatures: kSimWords 64-bit words per node. The first word
  // pins the all-zero and all-one patterns into bits 0/1 so stuck-at signals
  // collide with the constants immediately.
  std::vector<uint64_t> sig(n0 * kSimWords);
  {
    const std::vector<NodeId> order = net.topo_order();
    std::mt19937_64 rng(0x5eedf00dULL);
    for (unsigned w = 0; w < kSimWords; ++w) {
      std::vector<uint64_t> pi_words(net.num_pis());
      for (auto& word : pi_words) {
        word = rng();
        if (w == 0) {
          word = (word & ~uint64_t{3}) | 2;
        }
      }
      const std::vector<uint64_t> values = simulate_all_words(net, pi_words, order);
      for (std::size_t id = 0; id < n0; ++id) {
        sig[id * kSimWords + w] = values[id];
      }
    }
  }

  // Existing inverters, so a complemented resubstitution can reuse one.
  std::unordered_map<NodeId, NodeId> not_of;
  for (NodeId id = 0; id < n0; ++id) {
    const Node& n = net.node(id);
    if (n.type == GateType::Not) {
      not_of.emplace(n.fanin(0), id);
    }
  }

  // One CNF encoding serves every proof: commits only reroute fanouts, which
  // never changes the function any encoded node computes over the PIs, so
  // the clauses stay a valid model for later queries.
  SatSolver solver;
  std::vector<Lit> pi_lits;
  const std::vector<Lit> lits = encode_network(net, solver, pi_lits);
  uint64_t sat_calls = 0;  // flushed with the other counters at the end
  const auto prove_equal = [&](NodeId a, NodeId b, bool invert) {
    ++sat_calls;
    const Lit la = lits[a];
    const Lit lb = invert ? negate(lits[b]) : lits[b];
    const Lit diff = pos_lit(solver.new_var());
    solver.add_clause({negate(diff), la, lb});
    solver.add_clause({negate(diff), negate(la), negate(lb)});
    solver.add_clause({diff, negate(la), lb});
    solver.add_clause({diff, la, negate(lb)});
    return solver.solve({diff}, kSatConflictBudget) == SatResult::Unsat;
  };

  std::vector<char> alive(n0, 1);
  std::unordered_map<uint64_t, std::vector<NodeId>> index;
  std::size_t applied = 0;
  uint64_t candidates_total = 0;

  for (NodeId target = 0; target < n0; ++target) {
    const Node& tn = net.node(target);
    const bool donor_type = tn.type == GateType::Pi || tn.type == GateType::Const0 ||
                            tn.type == GateType::Const1 || is_opt_gate(tn.type);

    if (alive[target] && is_opt_gate(tn.type) && cd.fanout(target) > 0) {
      // Gather signature-equal donors, plain and complemented.
      struct Candidate {
        NodeId donor;
        bool invert;
        int64_t cost_delta;  // JJ; negative is an improvement
      };
      std::vector<Candidate> candidates;
      const uint64_t* tsig = &sig[static_cast<std::size_t>(target) * kSimWords];

      // The dying cone depends only on the target: compute it once.
      const std::vector<NodeId> dying = mffc(net, target, cd.fanouts());
      bool cone_clean = true;
      for (const NodeId d : dying) {
        if (!is_opt_gate(net.node(d).type)) {
          cone_clean = false;
          break;
        }
      }
      const auto in_cone = [&dying](NodeId id) {
        return std::find(dying.begin(), dying.end(), id) != dying.end();
      };

      for (const bool invert : {false, true}) {
        if (!cone_clean) break;
        const auto it = index.find(sig_hash(tsig, kSimWords, invert));
        if (it == index.end()) continue;
        for (const NodeId donor : it->second) {
          if (!alive[donor] || donor == target) continue;
          if (!sig_equal(tsig, &sig[static_cast<std::size_t>(donor) * kSimWords], kSimWords,
                         invert)) {
            continue;
          }
          const bool have_not = invert && not_of.count(donor) > 0;
          const uint32_t new_lvl =
              invert ? (have_not ? cd.level(not_of[donor]) : cd.level(donor) + 1)
                     : cd.level(donor);
          if (new_lvl > cd.level(target)) continue;  // depth must never regress
          // A donor (or its inverter) inside the dying cone would survive the
          // substitution, invalidating the gain accounting: skip it.
          if (in_cone(donor) || (have_not && in_cone(not_of[donor]))) continue;

          // Slack-aware donor pricing: a pin whose slack window reaches the
          // target's level pays what the target's edges paid — not the
          // phantom spine DFFs of its (earlier) ASAP stage, which the
          // scheduler's sweeps would slide away. The slide is capped at the
          // pin's ALAP (so it is realizable) and priced on both sides
          // (upstream fanin spines grow toward a later pin), and both the
          // ASAP and the slid price are evaluated, keeping the cheaper — a
          // fresh inverter is bounded only by the donor below (new_lvl <=
          // target level was enforced above).
          const NodeId existing = have_not ? not_of[donor] : kNullNode;
          int64_t cost_delta = cd.resub_delta(target, dying, donor, invert, existing);
          const Stage target_lvl = static_cast<Stage>(cd.level(target));
          Stage pin_at, baseline;
          if (invert && !have_not) {
            pin_at = target_lvl;
            baseline = view.stage(donor) + 1;
          } else {
            const NodeId pin = have_not ? not_of[donor] : donor;
            pin_at = std::max<Stage>(view.stage(pin),
                                     std::min(view.alap(pin), target_lvl));
            baseline = view.stage(pin);
          }
          if (pin_at != baseline) {  // zero slide reprices identically
            cost_delta = std::min(
                cost_delta,
                cd.resub_delta(target, dying, donor, invert, existing, pin_at));
          }
          if (cost_delta >= 0) continue;
          candidates.push_back({donor, invert, cost_delta});
        }
      }

      candidates_total += candidates.size();
      std::sort(candidates.begin(), candidates.end(),
                [](const Candidate& a, const Candidate& b) {
                  return a.cost_delta < b.cost_delta;
                });
      // SAT-validate in score order; a signature collision just moves on.
      constexpr std::size_t kMaxProofs = 4;
      for (std::size_t i = 0; i < candidates.size() && i < kMaxProofs; ++i) {
        const Candidate& cand = candidates[i];
        if (!prove_equal(target, cand.donor, cand.invert)) {
          continue;
        }
        NodeId new_node = cand.donor;
        if (cand.invert) {
          new_node = net.add_not(cand.donor);
          not_of[cand.donor] = new_node;
          view.sync();
        }
        // Consumer levels may drop and fanouts move: the view re-derives the
        // affected cone as part of the commit.
        view.replace(target, new_node);
        // The cone may contain inverters created by earlier commits, whose
        // ids lie beyond the initial `alive` span — they are never donors or
        // targets, so only the original ids need the bookkeeping.
        for (const NodeId d : dying) {
          if (d < n0) {
            alive[d] = 0;
          }
        }
        ++applied;
        break;
      }
    }

    if (alive[target] && donor_type) {
      const uint64_t* dsig = &sig[static_cast<std::size_t>(target) * kSimWords];
      index[sig_hash(dsig, kSimWords, false)].push_back(target);
    }
  }

  obs::count("opt.resub.candidates", candidates_total);
  obs::count("opt.resub.sat_calls", sat_calls);
  obs::count("opt.resub.sat_conflicts", solver.stats().conflicts);
  obs::count("opt.resub.committed", applied);
  net.sweep_dangling();
  return applied;
}

}  // namespace t1sfq
