#pragma once
/// \file session.hpp
/// \brief ECO re-synthesis sessions: the daemon's stateful tier.
///
/// A session runs the two halves of `run_flow` (core/flow.hpp) itself and
/// keeps the logical half's state alive between requests: the cleaned
/// pre-detection network (the *base*), the post-detection mapped network,
/// the live `IncrementalView` over it, and the base→mapped node
/// correspondence (itself recovered with `diff_networks` — T1 rewrites look
/// like replacements to the matcher). When the client re-submits an edited
/// netlist, the edit is diffed against the base (service/netdiff.hpp) and —
/// when eligible — applied to the mapped network as exactly the journaled
/// edits the view maintains (`sync` for created nodes, `replace` for moved
/// consumers, `kill_cone` for the dead region), followed by a compaction the
/// view survives via `rebind_after_cleanup`. Only the physical half re-runs
/// (phase assignment seeded from the maintained view state, DFF insertion,
/// metrics, the physics oracle); the committed T1 detection decisions are
/// reused. The session answers from the flow result it holds, through the
/// one response builder (core/api.hpp): it writes the physical netlist's BLIF
/// only for a request that asks for the netlist (`return_netlist`), so a
/// serve that does not ask pays no serialization.
///
/// The server hands every serve the request's network already cleaned and
/// keyed, and routes only requests with the optimizer off here: every opt
/// pass is global, so an optimized flow leaves nothing an edit could reuse.
///
/// Contract: reusing detection is exact when the edit does not disturb the
/// detection inputs — the eligibility checks below enforce the structural
/// part (the edited region must have survived detection untouched, carry no
/// T1 cells, and keep a T1-free radius-2 neighborhood in the mapped
/// network), and `SessionConfig::verify` closes the remaining gap by
/// shadow-running the cold flow and comparing id-independent canonical forms
/// (service/canonical.hpp); a mismatch falls back to the cold result and is
/// counted. Ineligible edits fall back to a cold re-establish, with the
/// reason reported as an `EcoFallback` (and an obs counter by the server).

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "core/flow.hpp"
#include "service/netdiff.hpp"

namespace t1sfq::service {

/// Why an ECO attempt was (or would be) served cold instead.
enum class EcoFallback {
  None,           ///< served as requested (cold first contact / warm / eco)
  ConfigChanged,  ///< knob surface differs from the session's — re-establish
  NotComparable,  ///< PI/PO interface changed — a new circuit, not an edit
  PoReroute,      ///< a PO moved between surviving nodes (inexpressible edit)
  TooLarge,       ///< dirty region above the max_dirty_fraction threshold
  T1Region,       ///< edit touches T1 cells or their radius-2 neighborhood
  ConstEdit,      ///< edit introduces constant nodes (not worth the liveness
                  ///< bookkeeping on the mapped side — served cold)
  Absorbed,       ///< edited region was consumed by detection (no live image)
  Mismatch,       ///< verify mode: canonical forms differed; cold result kept
};

const char* to_string(EcoFallback fallback);

struct SessionConfig {
  /// ECO is attempted only when |dirty| + |dead| stays below this fraction of
  /// the edited network's live size — past it, cold is just as fast.
  double max_dirty_fraction = 0.25;
  /// Shadow-run the cold flow after every ECO serve and compare canonical
  /// netlist forms; mismatches fall back (counted). Tests and the CI smoke
  /// gate run with this on; it doubles the cost, so the daemon default is off.
  bool verify = false;
};

struct SessionServe {
  FlowResponse response;
  EcoFallback fallback = EcoFallback::None;
};

/// One circuit's re-synthesis session. Thread-safe (serves are serialized per
/// session); the instance must stay put (the view pins the mapped network),
/// so sessions are held by unique_ptr in the server map.
class EcoSession {
 public:
  explicit EcoSession(std::string id);
  ~EcoSession();
  EcoSession(const EcoSession&) = delete;
  EcoSession& operator=(const EcoSession&) = delete;

  const std::string& id() const { return id_; }

  /// Serves one request against this session; \p clean is the request's
  /// network as the server compacted it and \p key its cache key
  /// (server.hpp). First contact (and every fallback) establishes cold state;
  /// an unchanged resubmission serves the held result as Warm; an eligible
  /// edit serves as Eco. The response carries no cache key (the server stamps
  /// it). Never throws — failures come back as structured error responses.
  SessionServe serve(const FlowRequest& request, Network clean, uint64_t key,
                     const SessionConfig& cfg);

 private:
  struct State;  // FlowResult + the view pinned to its mapped network (session.cpp)

  void establish_(const FlowRequest& request, Network clean, uint64_t key);
  EcoFallback eligibility_(const NetDiff& d, const Network& clean,
                           const SessionConfig& cfg) const;
  void apply_eco_(const NetDiff& d, Network clean);
  /// Runs the physical half on the held logical state against the base
  /// (total time measured from \p t_start).
  void finish_flow_(std::chrono::steady_clock::time_point t_start);

  std::string id_;
  mutable std::mutex mu_;

  std::string config_sig_;
  uint64_t last_key_ = 0;  ///< key of the request the held state answers
  FlowParams params_{};

  Network base_;                  ///< cleaned pre-detection network
  std::vector<uint64_t> base_signatures_;  ///< node_signatures(base_)
  std::vector<NodeId> base_map_;  ///< base id → mapped id (kNullNode: absorbed)
  /// Flow result (physical netlist held) + live view; null until established
  /// and after a failed serve.
  std::unique_ptr<State> state_;
};

}  // namespace t1sfq::service
