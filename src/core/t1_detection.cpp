#include "core/t1_detection.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>

#include "core/phase_assignment.hpp"
#include "core/t1_cell.hpp"
#include "incr/incremental_view.hpp"
#include "incr/schedule_refiner.hpp"
#include "network/cut_enumeration.hpp"
#include "network/mffc.hpp"
#include "obs/trace.hpp"

namespace t1sfq {

namespace {

constexpr int64_t kInfCost = std::numeric_limits<int64_t>::max() / 4;

/// DFF-trade term of the schedule-aware rescue's acceptance rule, mirroring
/// the rewrite ranking's `jj + dff_marginal * depth` idea: a rescued
/// candidate is charged kGuardDffLambda * dff_jj for every planned DFF its
/// commit adds to the maintained (ASAP) plan. The refined estimate alone is
/// optimistic — each rescue's scratch descent assumes the network realigns
/// around it, and the final assignment cannot realize every rescue's private
/// schedule at once — so the landing chains a rescue actually commits are
/// paid for at a premium: they stretch the spines later candidates price
/// against. Calibrated on the shrink-8 suite: 4.0 keeps every voter-class
/// fusion win at +5 DFFs, where the raw refined-estimate rule (0) buys it
/// with +30.
constexpr double kGuardDffLambda = 4.0;

/// Extra clock cycles the schedule-aware run may push the balanced sink past
/// the measured ASAP-only counterfactual. The estimate prices area only;
/// fusion cascades on rescue-reshaped landscapes otherwise spend whole
/// pipeline cycles for single-digit JJ margins (measured: the optimized voter
/// pays +1 cycle for 2 JJ), which Table I reports as a depth regression. 0
/// makes the rescue latency-neutral by construction: it may fuse freely
/// inside the latency the ASAP-only guard would have spent anyway.
constexpr Stage kGuardLatencyBudget = 0;

struct Match {
  NodeId root;
  T1PortFn fn;
  std::vector<NodeId> cone;  ///< MFFC(root) bounded by the group leaves
  uint64_t cone_area = 0;    ///< raw library JJ (candidate ranking within a group)
};

struct Candidate {
  std::array<NodeId, 3> leaves;
  std::vector<Match> matches;
  std::vector<NodeId> cone_union;
  int64_t gain = 0;
};

bool is_candidate_root(GateType type) {
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
      return false;  // DFFs, T1 parts, PIs, constants never match (wrong support)
  }
}

/// Spine DFFs a landing chain from stage \p sd to exact stage \p t adds when
/// the producer already keeps a spine of \p ext DFFs for its surviving
/// consumers. A misaligned chain's dedicated landing DFF is not charged (the
/// phase-alignment term counts savings only).
int64_t landing_cost(Stage sd, Stage t, Stage n, Stage ext) {
  if (t < sd) {
    return kInfCost;
  }
  const Stage shared = (t - sd) / n;  // spine DFFs the chain can ride/extend
  return std::max<Stage>(0, shared - ext);
}

/// Extended eq. 2: unified-JJ gain of fusing the candidate into one T1 cell.
/// Stages, fanouts, consumer lists and spines come from the round's shared
/// `IncrementalView` (the former private StageContext of this file).
int64_t price_candidate(const Network& net, const CostModel& model,
                        const IncrementalView& ctx, const Candidate& cand,
                        const std::vector<T1PortFn>& fns) {
  const CellLibrary& lib = model.lib();
  const MultiphaseConfig& clk = model.clk();
  const Stage n = static_cast<Stage>(clk.phases);

  const auto in_cone = [&](NodeId id) {
    return std::find(cand.cone_union.begin(), cand.cone_union.end(), id) !=
           cand.cone_union.end();
  };
  const auto is_root = [&](NodeId id) {
    return std::any_of(cand.matches.begin(), cand.matches.end(),
                       [&](const Match& m) { return m.root == id; });
  };

  // -- Paper eq. 2 in raw library JJ. ----------------------------------------
  int64_t union_area = 0;
  for (const NodeId d : cand.cone_union) {
    union_area += lib.jj_cost(net.node(d).type, net.node(d).port);
  }
  std::vector<T1PortFn> distinct;
  for (const T1PortFn fn : fns) {
    if (std::find(distinct.begin(), distinct.end(), fn) == distinct.end()) {
      distinct.push_back(fn);
    }
  }
  int64_t gain = union_area - static_cast<int64_t>(t1_area(lib, fns));

  // -- Clock shares: every dying cell was clocked; the replacement is one
  //    clocked body. (Port inverters are part of the port cost and carry no
  //    clock share in the unified model — is_clocked(T1Port) is false — so
  //    charging one here would disagree with the network-estimate guard.)
  gain += model.clock_share() *
          (static_cast<int64_t>(cand.cone_union.size()) - 1);

  // -- Splitter collapse. ----------------------------------------------------
  // Interior fanouts die outright (roots keep their consumers through the
  // ports); each leaf's cone uses collapse to a single body input.
  if (model.splitter_jj() > 0) {
    int64_t reclaimed = 0;
    for (const NodeId d : cand.cone_union) {
      if (!is_root(d) && ctx.fanout(d) > 1) {
        reclaimed += static_cast<int64_t>(ctx.fanout(d) - 1);
      }
    }
    for (const NodeId leaf : cand.leaves) {
      uint32_t uses = 0;
      for (const NodeId d : cand.cone_union) {
        const Node& nd = net.node(d);
        for (uint8_t i = 0; i < nd.num_fanins; ++i) {
          uses += nd.fanin(i) == leaf ? 1 : 0;
        }
      }
      if (uses > 1 && ctx.fanout(leaf) > 1) {
        reclaimed += std::min<uint32_t>(uses - 1, ctx.fanout(leaf) - 1);
      }
    }
    gain += model.splitter_jj() * reclaimed;
  }

  // -- Phase alignment: DFF spines and eq.-3 landing chains. -----------------
  // T1 stage under eq. 3 on the current (pre-commit) stages.
  std::array<Stage, 3> ls;
  for (unsigned i = 0; i < 3; ++i) {
    ls[i] = ctx.stage(cand.leaves[i]);
  }
  std::array<Stage, 3> sorted = ls;
  std::sort(sorted.begin(), sorted.end());
  const Stage sigma = std::max({sorted[0] + 3, sorted[1] + 2, sorted[2] + 1});

  int64_t dff_delta = 0;  // positive = savings
  // Interior spines disappear with the cone.
  for (const NodeId d : cand.cone_union) {
    if (!is_root(d)) {
      dff_delta += ctx.spine(d);
    }
  }
  // Root output spines: roots with the same function merge onto one port
  // firing at sigma; spine lengths are re-measured from there.
  for (const Match& m : cand.matches) {
    dff_delta += ctx.spine(m.root);
  }
  for (const T1PortFn fn : distinct) {
    Stage port_spine = 0;
    for (const Match& m : cand.matches) {
      if (m.fn != fn) continue;
      for (const NodeId c : ctx.consumers(m.root)) {
        if (!in_cone(c)) {
          port_spine = std::max(port_spine, clk.dffs_on_edge(sigma, ctx.stage(c)));
        }
      }
      if (ctx.is_po(m.root)) {
        port_spine = std::max(port_spine, clk.dffs_on_edge(sigma, ctx.output_stage()));
      }
    }
    dff_delta -= port_spine;
  }
  // Input side: each leaf trades the spine segment it kept for the cone
  // against the landing chain of its slot (minimum over slot permutations).
  std::array<Stage, 3> ext;
  for (unsigned i = 0; i < 3; ++i) {
    ext[i] = ctx.spine(cand.leaves[i], &cand.cone_union);
    dff_delta += ctx.spine(cand.leaves[i]) - ext[i];
  }
  std::array<int, 3> slot{1, 2, 3};
  int64_t best_landing = kInfCost;
  do {
    int64_t total = 0;
    for (unsigned i = 0; i < 3 && total < kInfCost; ++i) {
      const int64_t c = landing_cost(ls[i], sigma - slot[i], n, ext[i]);
      total = c >= kInfCost ? kInfCost : total + c;
    }
    best_landing = std::min(best_landing, total);
  } while (std::next_permutation(slot.begin(), slot.end()));
  dff_delta -= best_landing >= kInfCost ? 0 : best_landing;
  // Savings only: a net charge never vetoes a structural win (see the file
  // comment of t1_detection.hpp for the measurement behind this).
  gain += model.dff_jj() * std::max<int64_t>(0, dff_delta);
  return gain;
}

/// One detection sweep; commits greedily and reports the round statistics.
/// \p found_keys carries the leaf triples already counted as "found" by
/// earlier rounds (node ids stay stable across rounds; the network is only
/// compacted after the last round), so re-discovered candidates are not
/// double-counted in the Table-I statistic.
/// \p cycle_cap is the schedule-aware latency budget: the deepest balanced-
/// sink cycle any commit of this detection run may reach (anchored at the
/// pre-detection schedule by the caller; only enforced while the
/// schedule-aware guard is active).
T1DetectionStats detect_round(Network& net, const CostModel& model,
                              const T1DetectionParams& params, Stage cycle_cap,
                              std::set<std::array<NodeId, 3>>& found_keys,
                              IncrementalView& ctx) {
  T1DetectionStats stats;
  const CellLibrary& lib = model.lib();

  CutEnumerationParams cp;
  cp.cut_size = 3;
  cp.max_cuts = params.max_cuts;
  const auto cuts = enumerate_cuts(net, cp);
  // The round's shared analysis state is the caller's view, persisted across
  // rounds: stages, fanouts, consumers and — when the commit guard runs — the
  // delta-maintained DFF plan and JJ estimate. It arrives settled at the
  // round-entry landscape, and pricing happens before any commit, so
  // candidate gains see exactly that landscape.
  const bool guarded = params.require_positive_gain;

  // -- Group matching cuts by their (sorted) leaf triple. ----------------------
  std::map<std::array<NodeId, 3>, std::vector<Match>> groups;
  for (const NodeId id : net.topo_order()) {
    if (!is_candidate_root(net.node(id).type)) continue;
    for (const Cut& cut : cuts[id].cuts()) {
      if (cut.leaves.size() != 3) continue;
      // A constant leaf would inject its fixed value as pulses into the
      // storage loop — phase assignment rejects such bodies outright (the
      // cut function can still formally depend on the leaf, so the support
      // check alone does not catch this).
      const bool const_leaf = std::any_of(
          cut.leaves.begin(), cut.leaves.end(), [&](NodeId leaf) {
            const GateType t = net.node(leaf).type;
            return t == GateType::Const0 || t == GateType::Const1;
          });
      if (const_leaf) continue;
      const auto fn = classify_t1_function(cut.function);
      if (!fn) continue;
      const std::array<NodeId, 3> key{cut.leaves[0], cut.leaves[1], cut.leaves[2]};
      auto& bucket = groups[key];
      if (std::none_of(bucket.begin(), bucket.end(),
                       [&](const Match& m) { return m.root == id; })) {
        bucket.push_back(Match{id, *fn, {}, 0});
      }
    }
  }

  // -- Price the candidates (extended eq. 2). ----------------------------------
  std::vector<Candidate> candidates;
  for (auto& [leaves, matches] : groups) {
    if (matches.size() < params.min_cuts_per_group) continue;
    Candidate cand;
    cand.leaves = leaves;
    const std::vector<NodeId> stop(leaves.begin(), leaves.end());
    for (Match& m : matches) {
      m.cone = mffc(net, m.root, ctx.fanouts(), stop);
      for (const NodeId n : m.cone) {
        m.cone_area += lib.jj_cost(net.node(n).type, net.node(n).port);
      }
    }
    // Paper: 2 <= n <= 5 cuts per T1; keep the largest cones when over-full.
    std::sort(matches.begin(), matches.end(),
              [](const Match& a, const Match& b) { return a.cone_area > b.cone_area; });
    if (matches.size() > params.max_cuts_per_group) {
      matches.resize(params.max_cuts_per_group);
    }
    cand.matches = matches;

    // Union of the cones (roots may nest inside each other's MFFC).
    for (const Match& m : cand.matches) {
      for (const NodeId n : m.cone) {
        if (std::find(cand.cone_union.begin(), cand.cone_union.end(), n) ==
            cand.cone_union.end()) {
          cand.cone_union.push_back(n);
        }
      }
    }
    std::vector<T1PortFn> fns;
    for (const Match& m : cand.matches) {
      fns.push_back(m.fn);
    }
    cand.gain = price_candidate(net, model, ctx, cand, fns);
    if (cand.gain > 0 || !params.require_positive_gain) {
      if (found_keys.insert(cand.leaves).second) {
        ++stats.found;
      }
      candidates.push_back(std::move(cand));
    }
  }

  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) { return a.gain > b.gain; });

  // -- Commit greedily, skipping conflicts. -------------------------------------
  //
  // A consumed *leaf* is not necessarily fatal: when the leaf was itself a
  // replaced root (e.g. the carry of the previous full adder in a ripple
  // chain), its signal lives on at a T1 port and the new body can take the
  // port as fanin. Only leaves that died as cone-internal nodes kill a
  // candidate. `replacement` follows root -> port chains.
  std::vector<uint8_t> consumed(net.size(), 0);
  std::unordered_map<NodeId, NodeId> replacement;
  const auto resolve_leaf = [&](NodeId leaf) {
    auto it = replacement.find(leaf);
    while (it != replacement.end()) {
      leaf = it->second;
      it = replacement.find(leaf);
    }
    return leaf;
  };
  // Local gains rank the candidates; the unified network estimate is the
  // gatekeeper: a commit must not increase the ASAP shared-spine JJ estimate
  // of the whole netlist. This catches what no local pricing can (landing
  // chains that fail to align, spines stretched behind the new body); a
  // rejected candidate is not consumed, so the next round can retry it
  // against the post-commit stage landscape.
  //
  // The commit is applied through the view (ports in, roots rerouted, cone
  // killed), the O(1) estimate is read off the delta-maintained plan, and a
  // reject rolls the edit back from the journal. Cost per candidate: the
  // touched cone. When the ASAP estimate alone is a loss, the schedule-aware
  // rescue asks refine_schedule whether a few local stage sweeps recover
  // it. The estimate prices the *live* node set, PO-unreachable junk
  // included.
  //
  // Cycles already spent (by earlier rounds, or a deep seed) are not
  // re-charged: the cap only gates *new* boundary crossings of this round.
  int64_t current_est = 0;
  if (guarded) {
    cycle_cap = std::max(cycle_cap, model.clk().cycles(ctx.output_stage() - 1));
    current_est = static_cast<int64_t>(ctx.estimate().total());
  }
  // Guard decision counters: locals flushed to the obs registry at round end
  // (the commit loop is hot at scaling-bench sizes).
  uint64_t guard_accepts = 0;
  uint64_t guard_declines = 0;
  uint64_t rescue_attempts = 0;
  uint64_t rescues = 0;
  int64_t journal_depth_max = 0;
  for (const Candidate& cand : candidates) {
    if (params.require_positive_gain && cand.gain <= 0) continue;
    bool conflict = false;
    for (const NodeId leaf : cand.leaves) {
      conflict |= consumed[leaf] != 0 && replacement.count(leaf) == 0;
    }
    for (const NodeId n : cand.cone_union) {
      conflict |= consumed[n] != 0;
    }
    if (conflict) continue;

    std::vector<std::pair<NodeId, NodeId>> ports;
    // Pre-commit plan total and sink latency: the baselines the rescue's
    // DFF-lambda and latency clauses charge against (O(1) reads off the
    // maintained plan).
    const int64_t planned_before = guarded ? ctx.planned_dffs() : 0;
    // Apply the candidate through the view, guard, roll back on reject.
    const NodeId body = net.add_t1(resolve_leaf(cand.leaves[0]),
                                   resolve_leaf(cand.leaves[1]),
                                   resolve_leaf(cand.leaves[2]));
    std::vector<IncrementalView::ReplaceUndo> undos;
    for (const Match& m : cand.matches) {
      const NodeId port = net.add_t1_port(body, m.fn);
      ports.push_back({m.root, port});
      undos.push_back(ctx.replace(m.root, port));
    }
    const std::vector<NodeId> killed_closure = ctx.kill_cone(cand.cone_union);
    journal_depth_max =
        std::max(journal_depth_max,
                 static_cast<int64_t>(undos.size() + killed_closure.size()));
    if (guarded) {
      int64_t trial_est = static_cast<int64_t>(ctx.estimate().total());
      // Latency envelope (schedule-aware mode only, so the ASAP-only
      // decision stream is untouched when the rescue is off): no commit —
      // rescued or plain — may push the balanced sink past the cycle the
      // ASAP-only counterfactual flow ends at (measured by the caller,
      // plus kGuardLatencyBudget extra cycles). The estimate prices
      // area only; on rescue-reshaped landscapes marginal accepts
      // otherwise spend whole pipeline cycles for single-digit JJ margins,
      // which Table I reports as a depth regression.
      const Stage trial_cycles = model.clk().cycles(ctx.output_stage() - 1);
      const bool within_budget =
          !params.schedule_aware_guard || trial_cycles <= cycle_cap;
      bool accept = within_budget && trial_est <= current_est;
      if (!accept && within_budget && params.schedule_aware_guard) {
        ++rescue_attempts;
        std::vector<NodeId> seeds{body};
        for (unsigned i = 0; i < 3; ++i) {
          seeds.push_back(resolve_producer(net, net.node(body).fanin(i)));
        }
        const int64_t refined_planned = refine_schedule(ctx, seeds);
        const int64_t refined_est =
            trial_est - (ctx.planned_dffs() - refined_planned) * model.dff_jj();
        // The lambda term prices the DFF trade the raw refined estimate
        // cannot see. The refinement is hypothetical — each rescue's
        // scratch descent assumes the rest of the network realigns around
        // it, and the final assignment cannot realize every rescue's
        // private schedule at once — while the *committed* state keeps the
        // ASAP plan: `trial - before` landing DFFs that stretch the spines
        // later candidates price against and push the balanced sink later.
        // Those committed DFFs are charged at a premium, so a rescue must
        // clear a margin proportional to the chains it actually lands.
        const int64_t dff_increase =
            std::max<int64_t>(0, ctx.planned_dffs() - planned_before);
        const int64_t premium = static_cast<int64_t>(
            std::llround(kGuardDffLambda *
                         static_cast<double>(model.dff_jj() * dff_increase)));
        accept = refined_est + premium <= current_est;
        if (accept) {
          ++rescues;
        }
      }
      if (!accept) {
        ++guard_declines;
        // Physically a loss here; maybe not after more fusion. Roll back.
        ctx.revive_cone(killed_closure);
        for (std::size_t i = ports.size(); i-- > 0;) {
          ctx.unreplace(ports[i].first, ports[i].second, undos[i]);
        }
        std::vector<NodeId> dead_ports;
        for (const auto& [root, port] : ports) {
          (void)root;
          if (std::find(dead_ports.begin(), dead_ports.end(), port) ==
              dead_ports.end()) {
            dead_ports.push_back(port);  // two same-fn roots share one port
          }
        }
        for (const NodeId port : dead_ports) {
          ctx.kill(port);
        }
        ctx.kill(body);
        continue;
      }
      current_est = trial_est;
      ++guard_accepts;
    }
    for (const auto& [root, port] : ports) {
      replacement[root] = port;
    }
    for (const NodeId n : cand.cone_union) {
      consumed[n] = 1;
    }
    // The commit retracts the cone's whole dangling closure. Candidates were
    // enumerated at round start, so a stale candidate may still name a
    // cascade-killed node as cone, root or leaf: consume the full kill list
    // so it is skipped rather than "converting" logic that is already
    // disconnected. The closure can reach bodies and ports committed earlier
    // in this round, whose ids postdate the round-entry `consumed` sizing.
    consumed.resize(net.size(), 0);
    for (const NodeId n : killed_closure) {
      consumed[n] = 1;
    }
    ++stats.used;
    stats.estimated_gain += cand.gain;
  }

  if (obs::enabled()) {
    obs::count("detect.rounds");
    obs::count("detect.candidates", candidates.size());
    obs::count("detect.committed", stats.used);
    obs::count("detect.guard.accepts", guard_accepts);
    obs::count("detect.guard.declines", guard_declines);
    obs::count("detect.guard.rescue_attempts", rescue_attempts);
    obs::count("detect.guard.rescues", rescues);
    obs::gauge_max("detect.guard.journal_depth", journal_depth_max);
  }

  // The caller owns the end-of-round sweep (it must rebuild the view in the
  // rare case the sweep actually kills something).
  return stats;
}

}  // namespace

T1DetectionStats detect_and_replace_t1(Network& net, const CostModel& model,
                                       const T1DetectionParams& params) {
  return detect_and_replace_t1(net, model, params, /*reuse_view=*/nullptr);
}

T1DetectionStats detect_and_replace_t1(Network& net, const CostModel& model,
                                       const T1DetectionParams& params,
                                       IncrementalView* reuse_view) {
  T1DetectionStats stats;
  std::set<std::array<NodeId, 3>> found_keys;
  // Schedule-aware mode runs against a measured *counterfactual*: the same
  // detection with the rescue off, on a probe copy. The counterfactual
  // serves twice —
  //   * its final latency is the envelope no schedule-aware commit may
  //     exceed (a constant budget cannot work: the ASAP-only cascade
  //     legitimately spends a different number of extra cycles at different
  //     circuit scales, and the rescue reliably tempts the cascade exactly
  //     one marginal cycle past whatever that is; kGuardLatencyBudget
  //     grants extra cycles on top),
  //   * it is the fallback result: if the rescued run ends with a worse
  //     unified-JJ estimate or a deeper sink than the ASAP-only run — the
  //     refined per-candidate estimates are optimistic, and on some
  //     landscapes the extra conversions do not pay off physically — the
  //     counterfactual is kept. The rescue is therefore an improvement or a
  //     no-op by construction, never a regression, which is what lets it
  //     default on.
  // Cost: detection runs twice in schedule-aware mode (milliseconds at
  // Table-I scale; past `guard_probe_max_gates` the probe is skipped).
  Stage cycle_cap = std::numeric_limits<Stage>::max() / 4;
  const bool guarded = params.require_positive_gain;
  const bool guard_mode = params.schedule_aware_guard && guarded;
  // The probe run is quadratic-ish in practice (a full second detection);
  // past `guard_probe_max_gates` the envelope is anchored at the maintained
  // incremental depth bound instead (see the param's doc).
  const bool counterfactual =
      guard_mode && net.num_gates() <= params.guard_probe_max_gates;
  // One view persists across rounds: commits keep it delta-maintained, so
  // round k+1 starts from the dirty set round k left behind instead of an
  // O(n) rebuild. The end-of-round reachability sweep almost never fires
  // (commits retract their dangling closure eagerly); when it does kill
  // something the view is rebuilt. A caller-supplied view is adopted in
  // place of a private one when its tracking mode fits, and handed back
  // alive (rebound through the final cleanup).
  std::optional<IncrementalView> own;
  IncrementalView* persistent = reuse_view;
  if (reuse_view != nullptr && (!guarded || reuse_view->tracks_plan())) {
    persistent->sync();  // absorb anything the caller appended since building
  } else {
    own.emplace(net, model, /*track_plan=*/guarded);
    persistent = &*own;
  }
  Network fallback_net;
  T1DetectionStats fallback_stats;
  if (counterfactual) {
    fallback_net = net;
    T1DetectionParams asap_only = params;
    asap_only.schedule_aware_guard = false;
    fallback_stats = detect_and_replace_t1(fallback_net, model, asap_only);
    Stage out0 = 1;
    asap_stages(fallback_net, &out0);
    cycle_cap = model.clk().cycles(out0 - 1) + kGuardLatencyBudget;
  } else if (guard_mode) {
    // guard_probe_max_gates exceeded: latency envelope from the maintained
    // depth bound, no probe run, no fallback comparison. Strictly tighter cap
    // (anchored at the input latency, which detect_round ratchets per round).
    cycle_cap = model.clk().cycles(persistent->output_stage() - 1) + kGuardLatencyBudget;
    obs::count("detect.guard.probe_skipped");
  }
  const unsigned rounds = std::max(1u, params.max_rounds);
  for (unsigned round = 0; round < rounds; ++round) {
    obs::Span span("detect.round", "round", static_cast<int64_t>(round));
    const T1DetectionStats r =
        detect_round(net, model, params, cycle_cap, found_keys, *persistent);
    if (net.sweep_dangling() > 0) {
      persistent->rebuild();
    }
    span.arg("committed", static_cast<int64_t>(r.used));
    stats.found += r.found;
    stats.used += r.used;
    stats.estimated_gain += r.estimated_gain;
    if (r.used == 0) {
      break;  // fixed point: further rounds see the same landscape
    }
  }
  const bool adopted = persistent == reuse_view;
  if (adopted) {
    std::vector<NodeId> old_to_new;
    net = net.cleanup(&old_to_new);
    reuse_view->rebind_after_cleanup(old_to_new);
  } else {
    own.reset();
    net = net.cleanup();
  }
  if (counterfactual) {
    Stage out_on = 1, out_off = 1;
    asap_stages(net, &out_on);
    asap_stages(fallback_net, &out_off);
    const uint64_t est_on = model.network_breakdown(net).total();
    const uint64_t est_off = model.network_breakdown(fallback_net).total();
    if (est_on > est_off || model.clk().cycles(out_on - 1) >
                                model.clk().cycles(out_off - 1)) {
      net = std::move(fallback_net);
      stats = fallback_stats;  // the kept run's statistics, verbatim
      if (adopted) {
        reuse_view->rebuild();  // the swap invalidated the rebound state
      }
      obs::count("detect.counterfactual_kept");
    }
  }
  if (reuse_view != nullptr && !adopted) {
    reuse_view->rebuild();  // detection could not adopt it; hand it back valid
  }
  return stats;
}

T1DetectionStats detect_and_replace_t1(Network& net, const CellLibrary& lib,
                                       const T1DetectionParams& params) {
  return detect_and_replace_t1(net, CostModel(lib, AreaConfig{}, MultiphaseConfig{4}),
                               params);
}

}  // namespace t1sfq
