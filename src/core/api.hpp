#pragma once
/// \file api.hpp
/// \brief Versioned public flow API: `FlowRequest` in, `FlowResponse` out.
///
/// The historical entry point — build a `Network`, fill the nested
/// `FlowParams` knob bag, call `run_flow` — remains available for in-process
/// power users, but `FlowParams` is an *internal* representation: it grows
/// with every subsystem and nothing about it is wire-stable. This facade is
/// the stable surface (schema `t1sfq-flow-v1`):
///
///   * `FlowRequest` — a flat, versioned value type naming the paper-level
///     knobs (phases, T1 on/off, optimizer, physics oracle, latency slack)
///     plus service routing fields (session id, netlist echo). Constructed
///     builder-style; `to_flow_params()` derives the internal knob bag.
///   * `FlowResponse` — result or structured error (`ErrorCode`), the
///     Table-I metrics, per-stage timings, the serving tier, and (on
///     request) the physical netlist as BLIF.
///
/// `run_flow(const FlowRequest&)` is the in-process binding; the synthesis
/// daemon (src/service/) serializes exactly these types over its
/// length-prefixed JSON protocol, so both callers share one surface. Unlike
/// the internal overload it does not throw: failures come back as structured
/// error responses, the same way the wire reports them.

#include <cstdint>
#include <exception>
#include <string>

#include "core/error.hpp"
#include "core/flow.hpp"
#include "network/network.hpp"

namespace t1sfq {

/// Wire schema identifier carried by every serialized request/response.
inline constexpr const char* kFlowSchema = "t1sfq-flow-v1";

struct FlowRequest {
  std::string circuit;  ///< display name (defaults to the network's own name)
  Network network;

  // -- v1 knob surface (all of it participates in the cost signature) --------
  unsigned phases = 4;            ///< clock phases (1 = single-phase baseline)
  bool use_t1 = true;             ///< T1 detection & rewrite stage
  PhaseEngine engine = PhaseEngine::Heuristic;
  Stage output_slack = 0;         ///< extra stages granted to the output sink
  bool optimize = false;          ///< pre-mapping optimization (src/opt/)
  unsigned opt_rounds = 3;        ///< optimizer pipeline rounds when enabled
  bool physics_check = false;     ///< pulse-level oracle on the flow output

  // -- Routing / presentation (excluded from the cost signature) -------------
  bool observe = false;           ///< record obs metrics/spans for this run
  std::string session;            ///< ECO session id; empty = stateless
  bool return_netlist = false;    ///< include the physical netlist as BLIF

  /// Derives the internal knob bag this request maps to. The remaining
  /// `FlowParams` fields keep their defaults — the facade's contract is that
  /// the v1 knob surface above fully determines the result.
  FlowParams to_flow_params() const;

  /// Canonical configuration string: every result-affecting knob in a fixed
  /// order, prefixed with the schema version. Hashed (FNV-1a) together with
  /// the canonical netlist form into the service cache key, so any knob
  /// change — or schema revision — keys a different cache entry.
  std::string config_signature() const;

  class Builder;
};

/// Builder-style construction over the flat knob surface:
///
///   FlowRequest req = FlowRequest::Builder(std::move(net))
///                         .phases(4).use_t1(true).optimize(true).build();
class FlowRequest::Builder {
 public:
  explicit Builder(Network net) {
    req_.circuit = net.name();
    req_.network = std::move(net);
  }

  Builder& circuit(std::string name) { req_.circuit = std::move(name); return *this; }
  Builder& phases(unsigned n) { req_.phases = n; return *this; }
  Builder& use_t1(bool on) { req_.use_t1 = on; return *this; }
  Builder& engine(PhaseEngine e) { req_.engine = e; return *this; }
  Builder& output_slack(Stage s) { req_.output_slack = s; return *this; }
  Builder& optimize(bool on) { req_.optimize = on; return *this; }
  Builder& opt_rounds(unsigned n) { req_.opt_rounds = n; return *this; }
  Builder& physics_check(bool on) { req_.physics_check = on; return *this; }
  Builder& observe(bool on) { req_.observe = on; return *this; }
  Builder& session(std::string id) { req_.session = std::move(id); return *this; }
  Builder& return_netlist(bool on) { req_.return_netlist = on; return *this; }

  FlowRequest build() { return std::move(req_); }

 private:
  FlowRequest req_;
};

/// Which performance tier served a response (src/service/ semantics; the
/// in-process binding always reports Cold — it runs the flow).
enum class FlowTier : uint8_t {
  Cold,  ///< full flow execution
  Warm,  ///< cache hit on the netlist+config signature; flow not invoked
  Eco,   ///< incremental re-synthesis of a session's edited netlist
};

const char* to_string(FlowTier tier);

struct FlowResponse {
  bool ok = false;
  ErrorCode error = ErrorCode::Internal;  ///< meaningful only when !ok
  std::string message;                    ///< error text (what()) when !ok
  FlowTier tier = FlowTier::Cold;
  uint64_t cache_key = 0;  ///< netlist+config signature hash (0 in-process)
  FlowMetrics metrics{};
  FlowTimings timings{};
  std::string netlist_blif;  ///< physical netlist, when requested
};

/// The ok response of a finished flow: its metrics, its timings and, when
/// \p with_netlist, its physical netlist as BLIF. The tier is Cold and the
/// cache key 0; the service stamps both for the tier that served. Every tier
/// of the daemon and the in-process binding answer through this one builder.
FlowResponse flow_response(const FlowResult& result, bool with_netlist);

/// The typed error response of a failed flow: `error_code_of(e)` and
/// `e.what()`.
FlowResponse error_response(const std::exception& e);

/// In-process binding of the stable surface: runs the flow described by
/// \p request and reports the outcome as a structured response. Never throws
/// for flow failures — infeasible schedules, physics violations and invalid
/// configurations come back as `ok == false` with a typed `ErrorCode`,
/// exactly as the daemon would serialize them.
FlowResponse run_flow(const FlowRequest& request);

}  // namespace t1sfq
