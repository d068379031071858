#pragma once
/// \file server.hpp
/// \brief The synthesis service: request dispatch, result cache, sessions.
///
/// `Server` is transport-agnostic: `handle()` maps one request payload to one
/// response payload (both plain JSON strings, framing handled by the caller),
/// and `serve()` runs the frame loop over any iostream pair — the stdio mode
/// tests and CI use, and the per-connection loop of the unix-socket daemon
/// (tools/t1sfqd.cpp). It never throws out of a request: every failure is
/// encoded as a structured error response.
///
/// `dispatch` cleans the request's network once and keys it once (FNV-1a
/// over the config signature and the exact cleaned-netlist state), then
/// moves both into one of two tiers: the session of a request that names
/// one and leaves the optimizer off (the only requests ECO can serve), else
/// the stateless response cache. Every answer is built by `flow_response` /
/// `error_response` (core/api.hpp). Three serving tiers per flow request
/// (obs counters in parentheses):
///
///   * **warm** (`service.cache.warm`) — the key hits the response cache, or
///     names the state a session holds; the stored response is served
///     without running anything. The cache is an in-memory LRU of responses
///     layered over the versioned on-disk blob store (cost/disk_cache.hpp),
///     so warm hits survive daemon restarts; blobs that fail validation
///     count `service.cache.corrupt` and miss.
///   * **eco** (`service.cache.eco`) — the request names a session and the
///     edit is eligible: incremental re-synthesis (service/session.hpp).
///   * **cold** (`service.cache.cold`) — everything else: full flow.
///
/// Batch requests fan their jobs over the shared ordered runner
/// (benchmarks/runner.hpp) whose nested-pool guard keeps a daemon serving
/// from inside a bench job well-behaved. Per-tier latency lands in
/// `service.latency.{cold,warm,eco}` histograms; `service.requests` and
/// `service.errors` count traffic.

#include <cstdint>
#include <iosfwd>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "service/protocol.hpp"
#include "service/session.hpp"

namespace t1sfq::service {

struct ServerConfig {
  SessionConfig session{};   ///< ECO eligibility / verification knobs
  std::size_t cache_entries = 128;  ///< in-memory warm-cache capacity (0: off)
  /// Layer the warm cache over the on-disk blob store. Uses the same
  /// directory resolution as every other cache (`$T1SFQ_CACHE_DIR`, ...).
  bool disk_cache = true;
  unsigned batch_threads = 0;  ///< batch parallelism (0 = hardware)
  /// Record obs metrics for every request (otherwise only requests asking
  /// `observe` are recorded, and only for their own duration).
  bool observe = false;
};

class Server {
 public:
  explicit Server(ServerConfig cfg = {});
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// One request payload → one response payload. Thread-safe; never throws.
  std::string handle(const std::string& payload);

  /// Frame loop: reads length-prefixed requests from \p in, writes responses
  /// to \p out, until clean EOF, a broken stream, or a `shutdown` request
  /// (answered before stopping). Returns the number of requests served.
  std::size_t serve(std::istream& in, std::ostream& out);

  /// Typed flow entry (bench/tests bypassing JSON): same dispatch, cache and
  /// sessions as the wire path.
  FlowResponse dispatch(const FlowRequest& request);

  struct Stats {
    uint64_t requests = 0;
    uint64_t cold = 0;
    uint64_t warm = 0;
    uint64_t eco = 0;
    uint64_t eco_fallbacks = 0;
    uint64_t eco_mismatches = 0;
    uint64_t errors = 0;
    std::size_t sessions = 0;
  };
  Stats stats() const;

  /// True once a `shutdown` request was handled (daemon loop exit signal).
  bool shutdown_requested() const;

 private:
  std::string handle_op_(const Request& req);
  FlowResponse cached_flow_(const FlowRequest& request, const Network& clean, uint64_t key);
  bool cache_get_(uint64_t key, FlowResponse& resp);
  void cache_put_(uint64_t key, const FlowResponse& resp);
  /// Inserts into the in-memory LRU, evicting past `cache_entries`; the
  /// caller holds `mu_`.
  void remember_(uint64_t key, const FlowResponse& resp);
  std::string disk_path_(uint64_t key) const;

  ServerConfig cfg_;
  mutable std::mutex mu_;  ///< guards cache + session map + stats (not flows)
  Stats stats_;
  bool shutdown_ = false;

  // In-memory warm cache: key → response (netlist included), LRU eviction.
  std::list<uint64_t> lru_;
  std::map<uint64_t, std::pair<FlowResponse, std::list<uint64_t>::iterator>> cache_;

  std::map<std::string, std::unique_ptr<EcoSession>> sessions_;
  std::string disk_dir_;  ///< resolved blob directory ("" = disabled)
};

}  // namespace t1sfq::service
