/// \file service.cpp
/// \brief Synthesis-service bench: tier hit rates and per-tier latency.
///
/// Drives one in-process `service::Server` (the daemon's engine, minus the
/// socket) through the three serving tiers on a mixed workload — the Table-I
/// suite plus a planted-cone random network — and reports:
///
///   * **cold**  — first submission of every circuit (full flow);
///   * **warm**  — byte-identical replay, which must hit the result cache on
///     every request (hit rate is asserted at 100% in --smoke);
///   * **eco**   — an ECO session on the random circuit: single-gate edits
///     diffed and patched incrementally, with the measured speedup over that
///     circuit's cold flow (gated at >= 3x in --smoke): the median of its
///     cold-tier serves (the cold pass and every fallback re-establishment)
///     over the ECO p50;
///   * **wire**  — the same warm replay through the JSON codec +
///     `Server::handle` (what a socket client costs), plus one batch request,
///     reported as sustained requests/second.
///
/// Latencies are per-dispatch wall times; the table shows p50/p95 per tier.
/// The ECO pass reports eligibility honestly: edits that fall back to cold
/// (e.g. landing inside a T1 region) are counted, not hidden.
///
/// Usage: service [--shrink K] [--rand-gates N] [--eco-edits E] [--repeat R]
///                [--smoke] [--json <path>] [--db <path>]
///   --smoke   CI gate: shrink-4 suite + the 10k-gate random point; exits 1
///             unless the warm replay hit rate is 100%, at least one edit
///             served as ECO, and ECO beat that circuit's cold flow >= 3x.

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "benchmarks/argparse.hpp"
#include "benchmarks/random_net.hpp"
#include "benchmarks/record.hpp"
#include "benchmarks/suite.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"

using namespace t1sfq;

namespace {

using clock_type = std::chrono::steady_clock;

double ms_since(clock_type::time_point t0) {
  return std::chrono::duration<double, std::milli>(clock_type::now() - t0).count();
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t idx = std::min(v.size() - 1,
                                   static_cast<std::size_t>(q * static_cast<double>(v.size())));
  return v[idx];
}

/// Copy of \p base with its \p k-th AND/OR gate swapped for the dual gate —
/// the canonical "engineering change order": function fix, structure intact.
/// Returns false if the network has no k-th candidate.
bool edited_variant(const Network& base, unsigned k, Network* out) {
  Network net = base;
  unsigned seen = 0;
  for (NodeId id = 0; id < static_cast<NodeId>(net.size()); ++id) {
    const Node n = net.node(id);  // copy: add_raw_gate below reallocates
    if (n.dead || (n.type != GateType::And2 && n.type != GateType::Or2)) continue;
    if (seen++ != k) continue;
    const GateType dual = n.type == GateType::And2 ? GateType::Or2 : GateType::And2;
    const NodeId repl = net.add_raw_gate(dual, {n.fanin(0), n.fanin(1)});
    net.substitute(id, repl);
    net.mark_dead(id);  // cleanup() keeps dangling-alive nodes; the edit
                        // replaces the gate, it does not strand a copy
    *out = std::move(net);
    return true;
  }
  return false;
}

FlowRequest make_request(const Network& net, const std::string& session = {}) {
  return FlowRequest::Builder(net).session(session).build();  // 4 phases, T1 on
}

}  // namespace

int main(int argc, char** argv) {
  unsigned shrink = 4;
  unsigned rand_gates = 10000;
  unsigned eco_edits = 8;
  unsigned repeat = 2;
  bool smoke = false;
  std::string json_path;
  std::string db_path;
  bench::ArgParser args("bench_service");
  args.uint_opt("--shrink", &shrink, "K", "shrink Table-I benchmark widths by K")
      .uint_opt("--rand-gates", &rand_gates, "N", "random-circuit size (ECO point)")
      .uint_opt("--eco-edits", &eco_edits, "E", "edit attempts in the ECO session")
      .uint_opt("--repeat", &repeat, "R", "warm replay passes")
      .flag("--smoke", &smoke, "CI gate: 100% warm replay, ECO >= 3x cold")
      .string_opt("--json", &json_path, "path", "write records as JSON")
      .string_opt("--db", &db_path, "path", "append records to result DB");
  if (!args.parse(argc, argv)) return 2;

  // Self-contained run: no disk blobs, so hit rates measure this process only.
  service::ServerConfig cfg;
  cfg.disk_cache = false;
  service::Server server(cfg);

  struct Case {
    std::string name;
    Network net;
  };
  std::vector<Case> circuits;
  for (const auto& c : (shrink > 1 ? bench::make_suite_scaled(shrink) : bench::make_suite())) {
    circuits.push_back({c.name, c.generate()});
  }
  // One planted T1 cone per ~200 gates: a realistic conversion density for
  // the ECO point. (The scaling bench plants every 24 gates to stress
  // detection; at that density almost every gate sits within the ECO
  // eligibility radius of a T1 body and every edit would fall back cold.)
  Network rnd = bench::random_network(/*seed=*/1, /*num_pis=*/64, rand_gates,
                                      bench::RandomPoPolicy::AllSinks,
                                      /*plant_cone_every=*/200);
  rnd.set_name("rand" + std::to_string(rand_gates));
  circuits.push_back({rnd.name(), rnd});

  std::vector<double> cold_ms, warm_ms, eco_ms, wire_ms;
  std::vector<double> rand_cold_ms;  // every cold-tier serve of the random point
  bool ok = true;

  // -- cold pass -------------------------------------------------------------
  for (const auto& c : circuits) {
    const auto t0 = clock_type::now();
    const FlowResponse r = server.dispatch(make_request(c.net));
    const double ms = ms_since(t0);
    if (!r.ok || r.tier != FlowTier::Cold) {
      std::cerr << "[service] cold dispatch failed on " << c.name << ": " << r.message
                << "\n";
      ok = false;
      continue;
    }
    cold_ms.push_back(ms);
    if (c.name == rnd.name()) rand_cold_ms.push_back(ms);
  }

  // -- warm replay -----------------------------------------------------------
  std::size_t warm_hits = 0, warm_total = 0;
  for (unsigned pass = 0; pass < repeat; ++pass) {
    for (const auto& c : circuits) {
      const auto t0 = clock_type::now();
      const FlowResponse r = server.dispatch(make_request(c.net));
      warm_ms.push_back(ms_since(t0));
      ++warm_total;
      if (r.ok && r.tier == FlowTier::Warm) ++warm_hits;
    }
  }
  const double hit_rate =
      warm_total ? static_cast<double>(warm_hits) / static_cast<double>(warm_total) : 0.0;

  // -- wire pass: replay through the JSON codec, plus one batch --------------
  // The request's BLIF reads back as the same cells, so it keys the entries
  // the typed dispatches above filled: every wire replay must be warm.
  std::size_t wire_requests = 0;
  const auto wire_t0 = clock_type::now();
  for (const auto& c : circuits) {
    const auto t0 = clock_type::now();
    const std::string reply = server.handle(service::encode_flow_request(make_request(c.net)));
    wire_ms.push_back(ms_since(t0));
    ++wire_requests;
    const FlowResponse r = service::parse_response(reply);
    if (!r.ok || r.tier != FlowTier::Warm) {
      std::cerr << "[service] wire replay missed the cache on " << c.name << "\n";
      ok = false;
    }
  }
  {
    std::vector<FlowRequest> jobs;
    for (const auto& c : circuits) jobs.push_back(make_request(c.net));
    const std::string reply = server.handle(service::encode_batch_request(jobs));
    const auto replies = service::parse_batch_response(reply);
    wire_requests += replies.size();
    for (const auto& r : replies) {
      if (!r.ok || r.tier != FlowTier::Warm) {
        std::cerr << "[service] batch replay missed the cache\n";
        ok = false;
        break;
      }
    }
  }
  const double wire_s = ms_since(wire_t0) / 1000.0;
  const double req_s = wire_s > 0 ? static_cast<double>(wire_requests) / wire_s : 0.0;

  // -- ECO session on the random circuit -------------------------------------
  // Establish, then submit single-gate edits; each served ECO becomes the
  // session's new base, so every delta stays one gate. Edits landing in a T1
  // region fall back to cold re-establishment — counted, not hidden.
  std::size_t eco_hits = 0, eco_fallbacks = 0;
  {
    const std::string sid = "bench-eco";
    const FlowResponse est = server.dispatch(make_request(rnd, sid));
    if (!est.ok) {
      std::cerr << "[service] session establish failed: " << est.message << "\n";
      ok = false;
    }
    Network session_base = rnd;
    for (unsigned k = 0; k < eco_edits; ++k) {
      Network edited("");
      // Stride the victims so the edits probe different regions.
      if (!edited_variant(session_base, 1 + k * 97, &edited)) break;
      const auto t0 = clock_type::now();
      const FlowResponse r = server.dispatch(make_request(edited, sid));
      const double ms = ms_since(t0);
      if (!r.ok) {
        std::cerr << "[service] ECO dispatch failed: " << r.message << "\n";
        ok = false;
        continue;
      }
      if (r.tier == FlowTier::Eco) {
        ++eco_hits;
        eco_ms.push_back(ms);
        session_base = std::move(edited);
      } else {
        ++eco_fallbacks;
        if (r.tier == FlowTier::Cold) rand_cold_ms.push_back(ms);
        session_base = std::move(edited);  // fallback re-established on the edit
      }
    }
  }
  // Against the median cold serve, not one sample: a single cold flow on a
  // shared machine moves the ratio by half its value.
  const double rand_cold_p50 = percentile(rand_cold_ms, 0.5);
  const double eco_p50 = percentile(eco_ms, 0.5);
  const double eco_speedup = eco_p50 > 0 ? rand_cold_p50 / eco_p50 : 0.0;

  // -- report ----------------------------------------------------------------
  const auto stats = server.stats();
  std::cout << "Synthesis service bench (" << circuits.size() << " circuits, shrink "
            << shrink << ", random point " << rand_gates << " gates)\n\n";
  std::cout << std::setw(8) << "tier" << std::setw(10) << "requests" << std::setw(12)
            << "p50(ms)" << std::setw(12) << "p95(ms)" << "\n";
  const auto row = [](const char* tier, std::size_t n, const std::vector<double>& v) {
    std::cout << std::setw(8) << tier << std::setw(10) << n << std::setw(12) << std::fixed
              << std::setprecision(2) << percentile(v, 0.5) << std::setw(12)
              << percentile(v, 0.95) << "\n";
  };
  row("cold", cold_ms.size(), cold_ms);
  row("warm", warm_ms.size(), warm_ms);
  row("eco", eco_ms.size(), eco_ms);
  row("wire", wire_ms.size(), wire_ms);
  std::cout << "\nwarm hit rate  " << std::setprecision(1) << 100.0 * hit_rate << "% ("
            << warm_hits << "/" << warm_total << ")\n";
  std::cout << "eco hits       " << eco_hits << " (" << eco_fallbacks << " fallbacks)\n";
  std::cout << "eco speedup    " << std::setprecision(2) << eco_speedup << "x vs cold "
            << rnd.name() << " (" << rand_cold_p50 << " ms cold p50 of "
            << rand_cold_ms.size() << " serves, " << eco_p50 << " ms eco p50 of "
            << eco_ms.size() << " serves)\n";
  std::cout << "wire rate      " << std::setprecision(0) << req_s
            << " req/s (warm replay + batch through the JSON codec)\n";
  std::cout << "server stats   cold " << stats.cold << ", warm " << stats.warm << ", eco "
            << stats.eco << ", fallbacks " << stats.eco_fallbacks << ", errors "
            << stats.errors << "\n";

  // -- records ---------------------------------------------------------------
  const std::string config = "shrink=" + std::to_string(shrink) +
                             " rand=" + std::to_string(rand_gates) +
                             " repeat=" + std::to_string(repeat);
  std::vector<bench::BenchRecord> records(1);
  bench::BenchRecord& rec = records[0];
  rec.circuit = "mixed";
  rec.config = config;
  rec.metrics = {{"circuits", static_cast<int64_t>(circuits.size())},
                 {"warm_hits", static_cast<int64_t>(warm_hits)},
                 {"warm_total", static_cast<int64_t>(warm_total)},
                 {"eco_hits", static_cast<int64_t>(eco_hits)},
                 {"eco_fallbacks", static_cast<int64_t>(eco_fallbacks)}};
  rec.time_ms = {{"cold_p50", percentile(cold_ms, 0.5)},
                 {"cold_p95", percentile(cold_ms, 0.95)},
                 {"warm_p50", percentile(warm_ms, 0.5)},
                 {"warm_p95", percentile(warm_ms, 0.95)},
                 {"eco_p50", eco_p50},
                 {"eco_p95", percentile(eco_ms, 0.95)},
                 {"wire_p50", percentile(wire_ms, 0.5)},
                 // Absolute throughput lives here (time_ms is recorded, never
                 // gated): req/s on the runner's hardware is not a trajectory.
                 {"wire_per_req", req_s > 0.0 ? 1000.0 / req_s : 0.0}};
  rec.ratios = {{"warm_hit_rate", hit_rate},
                {"eco_speedup", eco_speedup}};
  bench::capture_counters(rec);
  if (!bench::emit_records(json_path, db_path, "service", records)) {
    return 1;
  }

  // -- CI gate ---------------------------------------------------------------
  if (smoke) {
    if (hit_rate < 1.0) {
      std::cerr << "[service] SMOKE FAIL: warm replay hit rate "
                << 100.0 * hit_rate << "% < 100%\n";
      ok = false;
    }
    if (eco_hits == 0) {
      std::cerr << "[service] SMOKE FAIL: no edit served on the ECO tier\n";
      ok = false;
    } else if (eco_speedup < 3.0) {
      std::cerr << "[service] SMOKE FAIL: ECO speedup " << eco_speedup << "x < 3x\n";
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
