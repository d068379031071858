#include "service/server.hpp"

#include <chrono>
#include <istream>
#include <ostream>
#include <sstream>

#include "benchmarks/runner.hpp"
#include "cost/disk_cache.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "service/canonical.hpp"

namespace t1sfq::service {

namespace {

using Clock = std::chrono::steady_clock;

uint64_t us_since(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - start)
          .count());
}

std::string hex64(uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[v & 0xf];
    v >>= 4;
  }
  return out;
}

}  // namespace

Server::Server(ServerConfig cfg) : cfg_(cfg) {
  if (cfg_.disk_cache) disk_dir_ = cache_directory();
}

Server::~Server() = default;

bool Server::shutdown_requested() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shutdown_;
}

Server::Stats Server::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.sessions = sessions_.size();
  return s;
}

std::string Server::disk_path_(uint64_t key) const {
  return disk_dir_ + "/service-" + hex64(key) + ".json";
}

bool Server::cache_get_(uint64_t key, FlowResponse& resp) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = cache_.find(key);
    if (it != cache_.end()) {
      lru_.erase(it->second.second);
      lru_.push_front(key);
      it->second.second = lru_.begin();
      resp = it->second.first;
      return true;
    }
  }
  if (disk_dir_.empty()) return false;
  const std::optional<std::vector<uint8_t>> blob = read_blob(disk_path_(key));
  if (!blob) return false;
  try {
    // The blob is a full encoded response: parse_response validates the
    // schema tag; the embedded key must echo the filename.
    resp = parse_response(std::string(blob->begin(), blob->end()));
    if (resp.cache_key != key || !resp.ok) {
      throw CacheCorruptionError("service cache: blob key mismatch");
    }
  } catch (const std::exception&) {
    DiskCache::note_corruption_fallback();
    obs::count("service.cache.corrupt");
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.errors;
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  remember_(key, resp);
  return true;
}

void Server::remember_(uint64_t key, const FlowResponse& resp) {
  if (cfg_.cache_entries == 0 || cache_.find(key) != cache_.end()) return;
  lru_.push_front(key);
  cache_[key] = {resp, lru_.begin()};
  while (cache_.size() > cfg_.cache_entries) {
    cache_.erase(lru_.back());
    lru_.pop_back();
  }
}

void Server::cache_put_(uint64_t key, const FlowResponse& resp) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    remember_(key, resp);
  }
  if (!disk_dir_.empty()) {
    const std::string payload = encode_response(resp);
    write_blob(disk_path_(key), std::vector<uint8_t>(payload.begin(), payload.end()));
  }
}

FlowResponse Server::cached_flow_(const FlowRequest& request, const Network& clean,
                                  uint64_t key) {
  FlowResponse resp;
  if (cache_get_(key, resp)) {
    resp.tier = FlowTier::Warm;
    return resp;
  }
  try {
    // Cached with the netlist; dispatch strips it for a request not asking.
    resp = flow_response(run_flow(clean, request.to_flow_params()), /*with_netlist=*/true);
  } catch (const std::exception& e) {
    return error_response(e);
  }
  resp.cache_key = key;
  cache_put_(key, resp);
  return resp;
}

FlowResponse Server::dispatch(const FlowRequest& request) {
  obs::ScopedEnable obs_scope(cfg_.observe || request.observe);
  obs::count("service.requests");
  const Clock::time_point t0 = Clock::now();

  Network clean = request.network.cleanup();
  const uint64_t key = fnv1a(request.config_signature(), exact_signature(clean));
  FlowResponse resp;
  EcoFallback fallback = EcoFallback::None;
  if (!request.session.empty() && !request.optimize) {
    EcoSession* session = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      std::unique_ptr<EcoSession>& slot = sessions_[request.session];
      if (!slot) slot = std::make_unique<EcoSession>(request.session);
      session = slot.get();
    }
    SessionServe served = session->serve(request, std::move(clean), key, cfg_.session);
    resp = std::move(served.response);
    fallback = served.fallback;
  } else {
    resp = cached_flow_(request, clean, key);
  }
  resp.cache_key = key;
  if (!request.return_netlist) resp.netlist_blif.clear();

  const uint64_t us = us_since(t0);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.requests;
    if (!resp.ok) {
      ++stats_.errors;
    } else if (resp.tier == FlowTier::Warm) {
      ++stats_.warm;
    } else if (resp.tier == FlowTier::Eco) {
      ++stats_.eco;
    } else {
      ++stats_.cold;
    }
    if (fallback != EcoFallback::None) ++stats_.eco_fallbacks;
    if (fallback == EcoFallback::Mismatch) ++stats_.eco_mismatches;
  }
  if (!resp.ok) {
    obs::count("service.errors");
  } else if (resp.tier == FlowTier::Warm) {
    obs::count("service.cache.warm");
    obs::observe_us("service.latency.warm", us);
  } else if (resp.tier == FlowTier::Eco) {
    obs::count("service.cache.eco");
    obs::observe_us("service.latency.eco", us);
  } else {
    obs::count("service.cache.cold");
    obs::observe_us("service.latency.cold", us);
  }
  if (fallback != EcoFallback::None) {
    obs::count("service.eco.fallback");
    obs::count(std::string("service.eco.fallback.") + to_string(fallback));
  }
  return resp;
}

std::string Server::handle_op_(const Request& req) {
  switch (req.op) {
    case Request::Op::Ping: {
      std::ostringstream ss;
      json::Writer w(ss, /*compact=*/true);
      w.begin_object().kv("schema", kFlowSchema).kv("op", "pong").kv("ok", true);
      w.end_object();
      return ss.str();
    }
    case Request::Op::Flow:
      return encode_response(dispatch(req.flow));
    case Request::Op::Batch: {
      std::vector<FlowResponse> results(req.batch.size());
      std::vector<bench::Job> jobs;
      jobs.reserve(req.batch.size());
      for (std::size_t i = 0; i < req.batch.size(); ++i) {
        jobs.push_back([this, &req, &results, i](std::ostream&) {
          results[i] = dispatch(req.batch[i]);
        });
      }
      std::ostringstream log;  // batch jobs produce no log text
      bench::run_jobs(std::move(jobs), log,
                      req.threads != 0 ? req.threads : cfg_.batch_threads);
      return encode_batch_response(results);
    }
    case Request::Op::Stats: {
      const Stats s = stats();
      std::ostringstream ss;
      json::Writer w(ss, /*compact=*/true);
      w.begin_object().kv("schema", kFlowSchema).kv("op", "stats").kv("ok", true);
      w.kv("requests", s.requests).kv("cold", s.cold).kv("warm", s.warm);
      w.kv("eco", s.eco).kv("eco_fallbacks", s.eco_fallbacks);
      w.kv("eco_mismatches", s.eco_mismatches).kv("errors", s.errors);
      w.kv("sessions", static_cast<uint64_t>(s.sessions));
      w.end_object();
      return ss.str();
    }
    case Request::Op::Shutdown: {
      {
        std::lock_guard<std::mutex> lock(mu_);
        shutdown_ = true;
      }
      std::ostringstream ss;
      json::Writer w(ss, /*compact=*/true);
      w.begin_object().kv("schema", kFlowSchema).kv("op", "bye").kv("ok", true);
      w.end_object();
      return ss.str();
    }
  }
  return encode_error(ErrorCode::Internal, "unreachable op");
}

std::string Server::handle(const std::string& payload) {
  try {
    return handle_op_(parse_request(payload));
  } catch (const std::exception& e) {
    obs::ScopedEnable obs_scope(cfg_.observe);
    obs::count("service.errors");
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.errors;
    return encode_error(error_code_of(e), e.what());
  }
}

std::size_t Server::serve(std::istream& in, std::ostream& out) {
  std::size_t served = 0;
  std::string payload;
  while (in.good()) {
    try {
      if (!read_frame(in, payload)) break;  // clean EOF
    } catch (const std::exception& e) {
      write_frame(out, encode_error(error_code_of(e), e.what()));
      break;
    }
    write_frame(out, handle(payload));
    ++served;
    if (shutdown_requested()) break;
  }
  return served;
}

}  // namespace t1sfq::service
