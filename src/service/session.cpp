#include "service/session.hpp"

#include <chrono>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "incr/incremental_view.hpp"
#include "network/io.hpp"
#include "obs/metrics.hpp"
#include "service/canonical.hpp"

namespace t1sfq::service {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

uint64_t request_key(const std::string& config_sig, const Network& clean) {
  return fnv1a(config_sig, exact_signature(clean));
}

}  // namespace

const char* to_string(EcoFallback fallback) {
  switch (fallback) {
    case EcoFallback::None: return "none";
    case EcoFallback::ConfigChanged: return "config_changed";
    case EcoFallback::OptEnabled: return "opt_enabled";
    case EcoFallback::NotComparable: return "not_comparable";
    case EcoFallback::PoReroute: return "po_reroute";
    case EcoFallback::TooLarge: return "too_large";
    case EcoFallback::T1Region: return "t1_region";
    case EcoFallback::ConstEdit: return "const_edit";
    case EcoFallback::Absorbed: return "absorbed";
    case EcoFallback::Mismatch: return "mismatch";
  }
  return "none";
}

/// The session's flow state: the result of run_flow's logical half (its
/// `mapped` network is where ECO patches land) and the view pinned to that
/// network. Heap-held (unique_ptr) so the view's Network& stays valid for the
/// session's lifetime; the view is destroyed before the result by member
/// order.
struct EcoSession::State {
  FlowResult result;
  std::optional<IncrementalView> view;
};

EcoSession::EcoSession(std::string id) : id_(std::move(id)) {}
EcoSession::~EcoSession() = default;

std::string EcoSession::last_canonical() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_canon_;
}

SessionServe EcoSession::serve(const FlowRequest& request, const SessionConfig& cfg) {
  std::lock_guard<std::mutex> lock(mu_);
  obs::ScopedEnable obs_scope(request.observe);
  SessionServe out;
  out.response.tier = FlowTier::Cold;
  try {
    if (established_ && request.config_signature() != config_sig_) {
      established_ = false;
      out.fallback = EcoFallback::ConfigChanged;
    }
    if (!established_) {
      establish_(request, out.response);
    } else if (!eco_capable_) {
      out.fallback = EcoFallback::OptEnabled;
      establish_(request, out.response);
    } else {
      Network clean = request.network.cleanup();
      const uint64_t key = request_key(config_sig_, clean);
      if (key == last_key_) {
        out.response = last_;
        out.response.tier = FlowTier::Warm;
      } else {
        const NetDiff d = diff_networks(base_, clean);
        const EcoFallback why = eligibility_(d, clean, cfg);
        if (why != EcoFallback::None) {
          out.fallback = why;
          establish_(request, out.response);
        } else if (d.identical()) {
          // Pure renumbering: the session's held result is served (a from-
          // scratch run on the renumbered input could tie-break differently;
          // the session's answer is the one its base numbering produced).
          last_key_ = key;
          out.response = last_;
          out.response.tier = FlowTier::Warm;
        } else {
          apply_eco_(d, clean, out.response);
          last_key_ = key;
          if (cfg.verify) {
            const FlowResult cold = run_flow(base_, params_);
            if (canonical_text(cold.physical) != last_canon_) {
              out.fallback = EcoFallback::Mismatch;
              establish_(request, out.response);
            }
          }
        }
      }
    }
    out.response.cache_key = last_key_;
    out.response.netlist_blif = request.return_netlist ? last_netlist_ : std::string();
  } catch (const std::exception& e) {
    established_ = false;  // state may be half-updated; next request rebuilds
    out.response = FlowResponse{};
    out.response.ok = false;
    out.response.error = error_code_of(e);
    out.response.message = e.what();
  }
  return out;
}

void EcoSession::establish_(const FlowRequest& request, FlowResponse& resp) {
  resp.tier = FlowTier::Cold;
  params_ = request.to_flow_params();
  config_sig_ = request.config_signature();
  eco_capable_ = !params_.opt.enable;

  const Clock::time_point t0 = Clock::now();
  // The flow runs on the cleaned network the session keeps as its base, as
  // the server's stateless tier does; cleanup is idempotent, so the result
  // is run_flow's on the request's own network.
  Network clean = request.network.cleanup();
  state_.reset();  // old view dies before its network
  state_ = std::make_unique<State>();
  run_logical_flow(clean, params_, state_->result, state_->view);
  base_ = std::move(clean);
  finish_flow_(t0, resp);

  if (eco_capable_) {
    // Recover the base→mapped correspondence: to the matcher, the T1 rewrite
    // is just a set of replacements, so surviving nodes pair up exactly.
    base_map_ = diff_networks(base_, state_->result.mapped).old_to_new;
  } else {
    base_map_.clear();
  }
  last_key_ = request_key(config_sig_, base_);
  resp.cache_key = last_key_;
  established_ = true;
}

EcoFallback EcoSession::eligibility_(const NetDiff& d, const Network& clean,
                                     const SessionConfig& cfg) const {
  if (!d.comparable) return EcoFallback::NotComparable;
  if (d.po_reroute) return EcoFallback::PoReroute;
  if (d.identical()) return EcoFallback::None;

  std::size_t live = 0;
  for (NodeId n = 0; n < clean.size(); ++n) {
    if (!clean.is_dead(n)) ++live;
  }
  const double dirty = static_cast<double>(d.dirty_new.size() + d.dead_old.size());
  if (live == 0 || dirty > cfg.max_dirty_fraction * static_cast<double>(live)) {
    return EcoFallback::TooLarge;
  }

  const Network& mapped = state_->result.mapped;
  std::vector<NodeId> seeds;  // mapped-side nodes the patch will touch
  for (const NodeId n : d.dirty_new) {
    const GateType t = clean.node(n).type;
    if (t == GateType::T1 || t == GateType::T1Port) return EcoFallback::T1Region;
    if (t == GateType::Const0 || t == GateType::Const1) return EcoFallback::ConstEdit;
    const Node& nn = clean.node(n);
    for (uint8_t i = 0; i < nn.num_fanins; ++i) {
      const NodeId old = d.new_to_old[nn.fanin(i)];
      if (old == kNullNode) continue;  // dirty fanin: created by the patch
      const NodeId m = base_map_[old];
      if (m == kNullNode || mapped.is_dead(m)) return EcoFallback::Absorbed;
      seeds.push_back(m);
    }
  }
  for (const NodeId o : d.dead_old) {
    const GateType t = base_.node(o).type;
    if (t == GateType::T1 || t == GateType::T1Port) return EcoFallback::T1Region;
    const NodeId m = base_map_[o];
    if (m == kNullNode || mapped.is_dead(m)) return EcoFallback::Absorbed;
    seeds.push_back(m);
  }

  // The reused detection decisions are exact only if the edit stays away
  // from T1 logic: scan a radius-2 neighborhood (fanins + consumers) of
  // every touched mapped node.
  const IncrementalView& view = *state_->view;
  std::unordered_set<NodeId> seen(seeds.begin(), seeds.end());
  std::vector<NodeId> frontier = seeds;
  for (int radius = 0; radius < 2; ++radius) {
    std::vector<NodeId> next;
    for (const NodeId m : frontier) {
      const Node& node = mapped.node(m);
      if (node.type == GateType::T1 || node.type == GateType::T1Port) {
        return EcoFallback::T1Region;
      }
      for (uint8_t i = 0; i < node.num_fanins; ++i) {
        if (seen.insert(node.fanin(i)).second) next.push_back(node.fanin(i));
      }
      for (const NodeId c : view.consumers(m)) {
        if (seen.insert(c).second) next.push_back(c);
      }
    }
    frontier = std::move(next);
  }
  for (const NodeId m : frontier) {
    const Node& node = mapped.node(m);
    if (node.type == GateType::T1 || node.type == GateType::T1Port) {
      return EcoFallback::T1Region;
    }
  }
  return EcoFallback::None;
}

void EcoSession::apply_eco_(const NetDiff& d, Network& clean, FlowResponse& resp) {
  FlowResult& res = state_->result;
  Network& mapped = res.mapped;
  IncrementalView& view = *state_->view;

  // The patch stands in for run_flow's logical half: the input metrics are
  // the edited network's (eco sessions run with opt off), the T1 counts stay
  // the committed detection's.
  res.metrics.pre_opt_gates = clean.num_gates();
  res.metrics.pre_opt_depth = clean.depth();
  res.metrics.pre_opt_area_jj = view.model().network_breakdown(clean).total();
  res.metrics.opt_gates = res.metrics.pre_opt_gates;
  res.metrics.opt_depth = res.metrics.pre_opt_depth;
  res.metrics.opt_area_jj = res.metrics.pre_opt_area_jj;
  res.timings = FlowTimings{};

  const Clock::time_point t0 = Clock::now();
  std::vector<NodeId> created(clean.size(), kNullNode);
  const auto to_mapped = [&](NodeId n) {
    return d.new_to_old[n] != kNullNode ? base_map_[d.new_to_old[n]] : created[n];
  };
  for (const NodeId n : d.dirty_new) {
    const Node& nn = clean.node(n);
    std::vector<NodeId> fanins;
    fanins.reserve(nn.num_fanins);
    for (uint8_t i = 0; i < nn.num_fanins; ++i) {
      fanins.push_back(to_mapped(nn.fanin(i)));
    }
    created[n] = mapped.add_raw_gate(nn.type, fanins);
  }
  view.sync();
  for (const auto& [o, n] : d.replacements) {
    view.replace(base_map_[o], to_mapped(n));
  }
  std::vector<NodeId> cone;
  cone.reserve(d.dead_old.size());
  for (const NodeId o : d.dead_old) cone.push_back(base_map_[o]);
  view.kill_cone(cone);

  // Compact like detection does, carrying the view across the remap, so DFF
  // insertion sees a dense network and the session never accretes corpses.
  std::vector<NodeId> old_to_new;
  mapped = mapped.cleanup(&old_to_new);
  view.rebind_after_cleanup(old_to_new);

  std::vector<NodeId> base_map(clean.size(), kNullNode);
  for (NodeId n = 0; n < clean.size(); ++n) {
    if (clean.is_dead(n)) continue;
    const NodeId m = to_mapped(n);
    if (m != kNullNode) base_map[n] = old_to_new[m];
  }
  base_map_ = std::move(base_map);
  base_ = std::move(clean);
  res.timings.detect_ms = ms_since(t0);  // diff+patch replaces the detection stage

  finish_flow_(t0, resp);
  resp.tier = FlowTier::Eco;
}

void EcoSession::finish_flow_(Clock::time_point t_start, FlowResponse& resp) {
  FlowResult& res = state_->result;
  run_physical_flow(base_, params_, res, *state_->view);
  res.timings.total_ms = ms_since(t_start);

  resp.ok = true;
  resp.error = ErrorCode::Internal;
  resp.message.clear();
  resp.metrics = res.metrics;
  resp.timings = res.timings;

  std::ostringstream blif;
  write_blif(res.physical.net, blif);
  last_netlist_ = blif.str();
  last_canon_ = canonical_text(res.physical);
  // The next serve needs only the logical state: drop the physical netlist
  // and its schedule once they are serialized.
  res.physical = PhysicalNetlist{};
  res.assignment = PhaseAssignment{};
  last_ = resp;
  last_.netlist_blif.clear();
  obs::count("service.session.flows");
}

}  // namespace t1sfq::service
