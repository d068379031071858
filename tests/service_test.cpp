/// \file service_test.cpp
/// \brief Synthesis service: framing, codecs, tiers, ECO identity, transport.
///
/// The ECO progression test drives the contract the daemon advertises: an
/// edited resubmission served on the ECO tier must be *bit-identical* to the
/// cold flow of the same netlist. It runs with `SessionConfig::verify` on, so
/// the session itself shadow-runs the cold flow and demotes any canonical
/// mismatch to a counted fallback — `eco_mismatches == 0` plus `tier == Eco`
/// is the identity assertion — and the Table-I metrics are additionally
/// compared against an independent stateless dispatch of the edited netlist.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "benchmarks/random_net.hpp"
#include "benchmarks/suite.hpp"
#include "network/io.hpp"
#include "service/canonical.hpp"
#include "service/netdiff.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"

namespace t1sfq {
namespace {

using service::Server;
using service::ServerConfig;

Network tiny_net() {
  Network net("tiny");
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  const NodeId c = net.add_pi("c");
  const NodeId x = net.add_and(a, b);
  net.add_po(net.add_xor(x, c), "s");
  return net;
}

/// Sparse planted-cone random circuit: T1 detection converts on it, but most
/// gates keep a T1-free neighborhood, so single-gate edits stay ECO-eligible.
Network sparse_random(unsigned gates) {
  Network net = bench::random_network(/*seed=*/7, /*num_pis=*/32, gates,
                                      bench::RandomPoPolicy::AllSinks,
                                      /*plant_cone_every=*/200);
  net.set_name("rand" + std::to_string(gates));
  return net;
}

/// Copy of \p base with its \p k-th AND/OR gate swapped for the dual gate.
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
    net.mark_dead(id);
    *out = std::move(net);
    return true;
  }
  return false;
}

FlowRequest request_for(const Network& net, const std::string& session = {}) {
  return FlowRequest::Builder(net).session(session).build();
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

TEST(ServiceFraming, RoundTripsMultipleFrames) {
  std::stringstream ss;
  service::write_frame(ss, "first");
  service::write_frame(ss, "");
  service::write_frame(ss, std::string(100000, 'x'));
  std::string payload;
  ASSERT_TRUE(service::read_frame(ss, payload));
  EXPECT_EQ(payload, "first");
  ASSERT_TRUE(service::read_frame(ss, payload));
  EXPECT_EQ(payload, "");
  ASSERT_TRUE(service::read_frame(ss, payload));
  EXPECT_EQ(payload.size(), 100000u);
  EXPECT_FALSE(service::read_frame(ss, payload));  // clean EOF
}

TEST(ServiceFraming, RejectsTruncatedFrame) {
  std::stringstream ss;
  service::write_frame(ss, "full payload");
  std::string wire = ss.str();
  wire.resize(wire.size() - 4);  // cut mid-payload
  std::stringstream cut(wire);
  std::string payload;
  try {
    service::read_frame(cut, payload);
    FAIL() << "truncated frame must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::InvalidRequest);
  }
}

TEST(ServiceFraming, RejectsOversizedAnnouncement) {
  // A hostile length prefix must be rejected before allocation.
  std::string wire = {'\x7f', '\x00', '\x00', '\x00'};
  std::stringstream ss(wire);
  std::string payload;
  EXPECT_THROW(service::read_frame(ss, payload), Error);
}

// ---------------------------------------------------------------------------
// Codecs
// ---------------------------------------------------------------------------

TEST(ServiceCodec, FlowRequestRoundTrip) {
  const FlowRequest req = FlowRequest::Builder(tiny_net())
                              .circuit("renamed")
                              .phases(5)
                              .use_t1(true)
                              .engine(PhaseEngine::ExactMilp)
                              .output_slack(2)
                              .optimize(true)
                              .opt_rounds(7)
                              .physics_check(true)
                              .observe(true)
                              .session("sess-1")
                              .return_netlist(true)
                              .build();
  const service::Request parsed = service::parse_request(service::encode_flow_request(req));
  ASSERT_EQ(parsed.op, service::Request::Op::Flow);
  const FlowRequest& p = parsed.flow;
  EXPECT_EQ(p.circuit, "renamed");
  EXPECT_EQ(p.phases, 5u);
  EXPECT_TRUE(p.use_t1);
  EXPECT_EQ(p.engine, PhaseEngine::ExactMilp);
  EXPECT_EQ(p.output_slack, 2);
  EXPECT_TRUE(p.optimize);
  EXPECT_EQ(p.opt_rounds, 7u);
  EXPECT_TRUE(p.physics_check);
  EXPECT_TRUE(p.observe);
  EXPECT_EQ(p.session, "sess-1");
  EXPECT_TRUE(p.return_netlist);
  EXPECT_EQ(p.network.num_pis(), 3u);
  EXPECT_EQ(p.network.num_pos(), 1u);
  EXPECT_EQ(p.network.pi_name(0), "a");
  EXPECT_EQ(p.config_signature(), req.config_signature());
}

TEST(ServiceCodec, ResponseRoundTrip) {
  FlowResponse resp;
  resp.ok = true;
  resp.tier = FlowTier::Eco;
  resp.cache_key = 0xdeadbeefcafef00dull;
  resp.metrics.num_gates = 10;
  resp.metrics.num_dffs = 4;
  resp.metrics.area_jj = 123;
  resp.metrics.breakdown = {70, 30, 13, 10};
  resp.metrics.depth_cycles = 3;
  resp.timings.total_ms = 1.5;
  resp.netlist_blif = ".model m\n.end\n";
  const FlowResponse p = service::parse_response(service::encode_response(resp));
  EXPECT_TRUE(p.ok);
  EXPECT_EQ(p.tier, FlowTier::Eco);
  EXPECT_EQ(p.cache_key, resp.cache_key);
  EXPECT_EQ(p.metrics.num_gates, 10u);
  EXPECT_EQ(p.metrics.num_dffs, 4u);
  EXPECT_EQ(p.metrics.area_jj, 123u);
  EXPECT_EQ(p.metrics.breakdown.logic, 70u);
  EXPECT_EQ(p.metrics.breakdown.clock, 10u);
  EXPECT_EQ(p.metrics.depth_cycles, 3u);
  EXPECT_DOUBLE_EQ(p.timings.total_ms, 1.5);
  EXPECT_EQ(p.netlist_blif, resp.netlist_blif);
}

TEST(ServiceCodec, ErrorResponseRoundTrip) {
  const FlowResponse p = service::parse_response(
      service::encode_error(ErrorCode::InfeasibleSchedule, "no feasible schedule"));
  EXPECT_FALSE(p.ok);
  EXPECT_EQ(p.error, ErrorCode::InfeasibleSchedule);
  EXPECT_EQ(p.message, "no feasible schedule");
}

// ---------------------------------------------------------------------------
// Malformed requests
// ---------------------------------------------------------------------------

TEST(ServiceServer, MalformedRequestsBecomeStructuredErrors) {
  Server server(ServerConfig{.disk_cache = false});

  const auto expect_error = [&](const std::string& payload, ErrorCode code) {
    const FlowResponse r = service::parse_response(server.handle(payload));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error, code) << payload;
    EXPECT_FALSE(r.message.empty());
  };
  expect_error("this is not json", ErrorCode::ParseError);
  expect_error(R"({"schema":"t1sfq-flow-v0","op":"ping"})", ErrorCode::InvalidRequest);
  expect_error(R"({"schema":"t1sfq-flow-v1","op":"transmogrify"})",
               ErrorCode::InvalidRequest);
  expect_error(R"({"schema":"t1sfq-flow-v1","op":"flow"})", ErrorCode::InvalidRequest);
  expect_error(R"({"schema":"t1sfq-flow-v1","op":"flow","blif":".model x\n.garbage\n"})",
               ErrorCode::ParseError);
  // The daemon survives all of the above.
  const std::string pong = server.handle(service::encode_ping());
  EXPECT_NE(pong.find("pong"), std::string::npos);
  EXPECT_EQ(server.stats().errors, 5u);
}

TEST(ServiceServer, ApiMisuseIsAStructuredError) {
  Server server(ServerConfig{.disk_cache = false});
  FlowRequest req = request_for(tiny_net());
  req.phases = 3;  // T1 landing slots need >= 4 phases
  req.use_t1 = true;
  const FlowResponse r = server.dispatch(req);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, ErrorCode::InvalidRequest);
}

// ---------------------------------------------------------------------------
// Tiers
// ---------------------------------------------------------------------------

TEST(ServiceServer, ColdThenWarmOnReplay) {
  Server server(ServerConfig{.disk_cache = false});
  const Network net = tiny_net();
  const FlowResponse cold = server.dispatch(request_for(net));
  ASSERT_TRUE(cold.ok) << cold.message;
  EXPECT_EQ(cold.tier, FlowTier::Cold);
  const FlowResponse warm = server.dispatch(request_for(net));
  ASSERT_TRUE(warm.ok);
  EXPECT_EQ(warm.tier, FlowTier::Warm);
  EXPECT_EQ(warm.cache_key, cold.cache_key);
  EXPECT_EQ(warm.metrics.num_dffs, cold.metrics.num_dffs);
  EXPECT_EQ(warm.metrics.area_jj, cold.metrics.area_jj);
  EXPECT_EQ(server.stats().cold, 1u);
  EXPECT_EQ(server.stats().warm, 1u);
}

/// Same circuit, different node numbering: rebuilds \p net along another
/// valid topological order (level ascending, id descending within a level).
Network renumbered(const Network& net) {
  Network out(net.name());
  std::vector<NodeId> map(net.size(), kNullNode);
  for (std::size_t i = 0; i < net.num_pis(); ++i) {
    map[net.pi(i)] = out.add_pi(net.pi_name(i));
  }
  const std::vector<uint32_t> lvl = net.levels();
  std::vector<NodeId> order = net.topo_order();
  std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return lvl[a] != lvl[b] ? lvl[a] < lvl[b] : a > b;
  });
  for (const NodeId id : order) {
    const Node& n = net.node(id);
    if (map[id] != kNullNode) continue;  // PIs handled above
    if (n.type == GateType::Const0) {
      map[id] = out.get_const0();
    } else if (n.type == GateType::Const1) {
      map[id] = out.get_const1();
    } else {
      std::vector<NodeId> fis;
      for (uint8_t s = 0; s < n.num_fanins; ++s) fis.push_back(map[n.fanin(s)]);
      map[id] = out.add_raw_gate(n.type, fis);
    }
  }
  for (std::size_t i = 0; i < net.num_pos(); ++i) {
    out.add_po(map[net.po(i)], net.po_name(i));
  }
  return out;
}

TEST(ServiceServer, WarmHitSurvivesRenumbering) {
  // A pure renumbering is not an edit: the ECO session must recognize the
  // circuit as unchanged (empty diff) and serve its held answer warm.
  Server server(ServerConfig{.disk_cache = false});
  const Network net = sparse_random(400);
  ASSERT_TRUE(server.dispatch(request_for(net, "s")).ok);
  const FlowResponse again = server.dispatch(request_for(renumbered(net), "s"));
  ASSERT_TRUE(again.ok) << again.message;
  EXPECT_EQ(again.tier, FlowTier::Warm);
}

TEST(ServiceServer, EcoProgressionIsBitIdenticalToCold) {
  // T1 on and off: either way the session patches and reschedules the view
  // its logical half left, while the cold flow builds its own.
  for (const bool t1 : {true, false}) {
    SCOPED_TRACE(t1 ? "use_t1(true)" : "use_t1(false)");
    const auto request = [t1](const Network& net, const std::string& session) {
      return FlowRequest::Builder(net).session(session).use_t1(t1).build();
    };
    ServerConfig cfg;
    cfg.disk_cache = false;
    cfg.session.verify = true;  // shadow-run the cold flow after every ECO
    Server server(cfg);

    const Network base = sparse_random(2000);
    const FlowResponse est = server.dispatch(request(base, "eco"));
    ASSERT_TRUE(est.ok) << est.message;
    EXPECT_EQ(est.tier, FlowTier::Cold);

    // Probe single-gate edits until one serves on the ECO tier (edits
    // landing in a T1 region legitimately fall back cold).
    Network session_base = base;
    FlowResponse eco;
    bool got_eco = false;
    for (unsigned k = 0; k < 12 && !got_eco; ++k) {
      Network edited("");
      ASSERT_TRUE(edited_variant(session_base, 1 + k * 29, &edited));
      const FlowResponse r = server.dispatch(request(edited, "eco"));
      ASSERT_TRUE(r.ok) << r.message;
      session_base = std::move(edited);
      if (r.tier == FlowTier::Eco) {
        eco = r;
        got_eco = true;
      }
    }
    ASSERT_TRUE(got_eco) << "no probe served on the ECO tier";
    // verify-mode accounting: a canonical mismatch would have been demoted.
    EXPECT_EQ(server.stats().eco_mismatches, 0u);
    EXPECT_GE(server.stats().eco, 1u);

    // The ECO answer must equal an independent cold run of the same netlist.
    Server fresh(ServerConfig{.disk_cache = false});
    const FlowResponse cold = fresh.dispatch(request(session_base, ""));
    ASSERT_TRUE(cold.ok) << cold.message;
    EXPECT_EQ(eco.metrics.num_gates, cold.metrics.num_gates);
    EXPECT_EQ(eco.metrics.num_dffs, cold.metrics.num_dffs);
    EXPECT_EQ(eco.metrics.num_splitters, cold.metrics.num_splitters);
    EXPECT_EQ(eco.metrics.area_jj, cold.metrics.area_jj);
    EXPECT_EQ(eco.metrics.depth_cycles, cold.metrics.depth_cycles);
    EXPECT_EQ(eco.metrics.t1_used, cold.metrics.t1_used);
    // The physical half reads the post-detection estimate off the session's
    // patched view; it must equal the cold flow's.
    EXPECT_EQ(eco.metrics.detect_area_jj, cold.metrics.detect_area_jj);
  }
}

TEST(ServiceServer, EcoSessionWritesTheNetlistOnlyOnRequest) {
  // A session holds its last physical netlist and serializes it only for a
  // request that sets return_netlist; the answer must be that netlist.
  Server server(ServerConfig{.disk_cache = false});
  Network session_base = sparse_random(2000);
  FlowRequest first = request_for(session_base, "s");
  first.return_netlist = true;
  const FlowResponse est = server.dispatch(first);
  ASSERT_TRUE(est.ok) << est.message;
  ASSERT_FALSE(est.netlist_blif.empty());
  FlowResponse eco;
  for (unsigned k = 0; k < 12 && eco.tier != FlowTier::Eco; ++k) {
    Network edited("");
    ASSERT_TRUE(edited_variant(session_base, 1 + k * 29, &edited));
    eco = server.dispatch(request_for(edited, "s"));
    ASSERT_TRUE(eco.ok) << eco.message;
    session_base = std::move(edited);
  }
  ASSERT_EQ(eco.tier, FlowTier::Eco) << "no probe served on the ECO tier";
  EXPECT_TRUE(eco.netlist_blif.empty());

  FlowRequest again = request_for(session_base, "s");
  again.return_netlist = true;
  const FlowResponse warm = server.dispatch(again);
  ASSERT_TRUE(warm.ok) << warm.message;
  EXPECT_EQ(warm.tier, FlowTier::Warm);
  ASSERT_FALSE(warm.netlist_blif.empty());
  EXPECT_NE(warm.netlist_blif, est.netlist_blif);  // the edited circuit's, not a stale one
  std::istringstream blif(warm.netlist_blif);
  const Network phys = read_blif(blif);
  EXPECT_EQ(phys.num_pis(), session_base.num_pis());
  EXPECT_EQ(phys.num_pos(), session_base.num_pos());
  EXPECT_EQ(phys.count_of(GateType::Dff), eco.metrics.num_dffs);
  // A second ask serves the same text.
  EXPECT_EQ(server.dispatch(again).netlist_blif, warm.netlist_blif);
}

TEST(ServiceServer, ConfigChangeFallsBackCold) {
  Server server(ServerConfig{.disk_cache = false});
  const Network base = sparse_random(400);
  ASSERT_TRUE(server.dispatch(request_for(base, "s")).ok);
  FlowRequest changed = request_for(base, "s");
  changed.output_slack = 1;  // knob change: session must re-establish
  const FlowResponse r = server.dispatch(changed);
  ASSERT_TRUE(r.ok) << r.message;
  EXPECT_EQ(r.tier, FlowTier::Cold);
}

TEST(ServiceServer, OptimizedSessionRequestIsServedStatelessly) {
  // ECO cannot serve an optimized flow, so such a request opens no session:
  // it is served cold, then warm on replay, from the response cache.
  Server server(ServerConfig{.disk_cache = false});
  FlowRequest req = request_for(sparse_random(400), "s");
  req.optimize = true;
  const FlowResponse cold = server.dispatch(req);
  ASSERT_TRUE(cold.ok) << cold.message;
  EXPECT_EQ(cold.tier, FlowTier::Cold);
  const FlowResponse warm = server.dispatch(req);
  ASSERT_TRUE(warm.ok) << warm.message;
  EXPECT_EQ(warm.tier, FlowTier::Warm);
  EXPECT_EQ(warm.cache_key, cold.cache_key);
  EXPECT_EQ(warm.metrics.area_jj, cold.metrics.area_jj);
  EXPECT_EQ(server.stats().sessions, 0u);
  EXPECT_EQ(server.stats().eco_fallbacks, 0u);
}

TEST(ServiceServer, WarmHitReturnsTheColdNetlist) {
  // The response cache holds the cold answer's netlist: a warm hit asking
  // for it serves that text, and one not asking serves none.
  Server server(ServerConfig{.disk_cache = false});
  FlowRequest req = request_for(sparse_random(400));
  req.return_netlist = true;
  const FlowResponse cold = server.dispatch(req);
  ASSERT_TRUE(cold.ok) << cold.message;
  ASSERT_EQ(cold.tier, FlowTier::Cold);
  ASSERT_FALSE(cold.netlist_blif.empty());
  const FlowResponse warm = server.dispatch(req);
  ASSERT_TRUE(warm.ok) << warm.message;
  EXPECT_EQ(warm.tier, FlowTier::Warm);
  EXPECT_EQ(warm.netlist_blif, cold.netlist_blif);
  req.return_netlist = false;
  const FlowResponse bare = server.dispatch(req);
  EXPECT_EQ(bare.tier, FlowTier::Warm);
  EXPECT_TRUE(bare.netlist_blif.empty());
}

TEST(ServiceServer, DiskHitsStayWithinTheMemoryCapacity) {
  // A warm hit read from a disk blob enters the in-memory LRU like a cold
  // result does, evicting past `cache_entries`.
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "t1sfq_service_test_capacity";
  fs::remove_all(dir);
  const char* old = std::getenv("T1SFQ_CACHE_DIR");
  const std::string saved = old ? old : "";
  ::setenv("T1SFQ_CACHE_DIR", dir.string().c_str(), 1);
  {
    Server server(ServerConfig{.cache_entries = 1});
    const FlowRequest a = request_for(tiny_net());
    const FlowRequest b = request_for(sparse_random(200));
    ASSERT_EQ(server.dispatch(a).tier, FlowTier::Cold);
    ASSERT_EQ(server.dispatch(b).tier, FlowTier::Cold);  // evicts a from memory
    ASSERT_EQ(server.dispatch(a).tier, FlowTier::Warm);  // from disk; evicts b
    fs::remove_all(dir);
    EXPECT_EQ(server.dispatch(b).tier, FlowTier::Cold) << "memory held two entries";
  }
  if (old) {
    ::setenv("T1SFQ_CACHE_DIR", saved.c_str(), 1);
  } else {
    ::unsetenv("T1SFQ_CACHE_DIR");
  }
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Batch + transport
// ---------------------------------------------------------------------------

TEST(ServiceServer, BatchPreservesRequestOrder) {
  Server server(ServerConfig{.disk_cache = false});
  const auto suite = bench::make_suite_scaled(8);
  std::vector<FlowRequest> jobs;
  for (std::size_t i = 0; i < 3; ++i) {
    for (const auto& c : suite) {
      if (jobs.size() >= 9) break;
      FlowRequest r = request_for(c.generate());
      r.circuit = c.name + "#" + std::to_string(i);
      jobs.push_back(std::move(r));
    }
  }
  const std::string reply =
      server.handle(service::encode_batch_request(jobs, /*threads=*/4));
  const auto responses = service::parse_batch_response(reply);
  ASSERT_EQ(responses.size(), jobs.size());
  for (std::size_t i = 0; i < responses.size(); ++i) {
    EXPECT_TRUE(responses[i].ok) << i << ": " << responses[i].message;
    EXPECT_GT(responses[i].metrics.num_gates, 0u);
  }
  EXPECT_EQ(server.stats().requests, jobs.size());
}

TEST(ServiceServer, ServeLoopHandlesPingFlowStatsShutdown) {
  Server server(ServerConfig{.disk_cache = false});
  std::stringstream in, out;
  service::write_frame(in, service::encode_ping());
  service::write_frame(in, service::encode_flow_request(request_for(tiny_net())));
  service::write_frame(in, service::encode_stats_request());
  service::write_frame(in, service::encode_shutdown());
  // A frame after shutdown must not be consumed.
  service::write_frame(in, service::encode_ping());

  const std::size_t served = server.serve(in, out);
  EXPECT_EQ(served, 4u);
  EXPECT_TRUE(server.shutdown_requested());

  std::string payload;
  ASSERT_TRUE(service::read_frame(out, payload));
  EXPECT_NE(payload.find("pong"), std::string::npos);
  ASSERT_TRUE(service::read_frame(out, payload));
  EXPECT_TRUE(service::parse_response(payload).ok);
  ASSERT_TRUE(service::read_frame(out, payload));
  EXPECT_NE(payload.find("\"requests\""), std::string::npos);
  ASSERT_TRUE(service::read_frame(out, payload));
  EXPECT_NE(payload.find("bye"), std::string::npos);
  EXPECT_FALSE(service::read_frame(out, payload));
}

TEST(ServiceServer, BlifIngestFlowExportRoundTrip) {
  Server server(ServerConfig{.disk_cache = false});
  FlowRequest req = request_for(tiny_net());
  req.return_netlist = true;
  const std::string reply = server.handle(service::encode_flow_request(req));
  const FlowResponse r = service::parse_response(reply);
  ASSERT_TRUE(r.ok) << r.message;
  ASSERT_FALSE(r.netlist_blif.empty());

  std::istringstream blif(r.netlist_blif);
  const Network phys = read_blif(blif);
  EXPECT_EQ(phys.num_pis(), 3u);
  EXPECT_EQ(phys.num_pos(), 1u);
  EXPECT_EQ(phys.pi_name(0), "a");
  // Splitters are identity buffers that strash-fold on re-read; the clocked
  // cells must survive the round-trip exactly.
  EXPECT_EQ(phys.count_of(GateType::Dff), r.metrics.num_dffs);
  EXPECT_EQ(phys.num_gates(), r.metrics.num_gates + r.metrics.num_dffs);
}

TEST(ServiceServer, WireRequestMapsTheCircuitTheClientSent) {
  // The request's BLIF reads back as the client's own cells, so the daemon
  // answers a wire request with the in-process binding's metrics.
  std::vector<Network> nets;
  for (const auto& bc : bench::make_suite_scaled(4)) nets.push_back(bc.generate());
  for (uint64_t seed = 0; seed < 6; ++seed) {
    nets.push_back(bench::random_network(seed, 32, 500, bench::RandomPoPolicy::AllSinks,
                                         /*plant_cone_every=*/200));
  }
  Server server(ServerConfig{.disk_cache = false});
  for (std::size_t i = 0; i < nets.size(); ++i) {
    SCOPED_TRACE("network " + std::to_string(i) + " " + nets[i].name());
    const FlowRequest req = request_for(nets[i]);
    const FlowResponse typed = run_flow(req);
    const FlowResponse wire =
        service::parse_response(server.handle(service::encode_flow_request(req)));
    ASSERT_TRUE(typed.ok) << typed.message;
    ASSERT_TRUE(wire.ok) << wire.message;
    EXPECT_EQ(wire.tier, FlowTier::Cold);
    EXPECT_EQ(wire.metrics.pre_opt_gates, typed.metrics.pre_opt_gates);
    EXPECT_EQ(wire.metrics.num_gates, typed.metrics.num_gates);
    EXPECT_EQ(wire.metrics.num_dffs, typed.metrics.num_dffs);
    EXPECT_EQ(wire.metrics.num_splitters, typed.metrics.num_splitters);
    EXPECT_EQ(wire.metrics.area_jj, typed.metrics.area_jj);
    EXPECT_EQ(wire.metrics.depth_cycles, typed.metrics.depth_cycles);
    EXPECT_EQ(wire.metrics.t1_used, typed.metrics.t1_used);
  }
}

TEST(ServiceServer, WarmCacheSurvivesRestartViaDiskBlobs) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "t1sfq_service_test_cache";
  fs::remove_all(dir);
  const char* old = std::getenv("T1SFQ_CACHE_DIR");
  const std::string saved = old ? old : "";
  ::setenv("T1SFQ_CACHE_DIR", dir.string().c_str(), 1);

  const Network net = tiny_net();
  uint64_t key = 0;
  {
    Server first{ServerConfig{}};
    const FlowResponse r = first.dispatch(request_for(net));
    ASSERT_TRUE(r.ok) << r.message;
    EXPECT_EQ(r.tier, FlowTier::Cold);
    key = r.cache_key;
  }
  {
    Server second{ServerConfig{}};
    const FlowResponse r = second.dispatch(request_for(net));
    ASSERT_TRUE(r.ok) << r.message;
    EXPECT_EQ(r.tier, FlowTier::Warm) << "disk blob did not survive restart";
    EXPECT_EQ(r.cache_key, key);
  }
  // Corrupt every blob: the server must fall back cold, not crash or serve it.
  for (const auto& e : fs::directory_iterator(dir)) {
    std::ofstream(e.path(), std::ios::trunc) << "{\"not\":\"a blob\"}";
  }
  {
    Server third{ServerConfig{}};
    const FlowResponse r = third.dispatch(request_for(net));
    ASSERT_TRUE(r.ok) << r.message;
    EXPECT_EQ(r.tier, FlowTier::Cold);
  }

  if (old) {
    ::setenv("T1SFQ_CACHE_DIR", saved.c_str(), 1);
  } else {
    ::unsetenv("T1SFQ_CACHE_DIR");
  }
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// NetDiff
// ---------------------------------------------------------------------------

/// The text `exact_signature` is documented to hash, built with a stream.
std::string exact_signature_text(const Network& net) {
  std::ostringstream ss;
  ss << "net:" << net.name() << '\n' << "pi:";
  for (std::size_t i = 0; i < net.num_pis(); ++i) {
    ss << ' ' << net.pi(i) << '=' << net.pi_name(i);
  }
  ss << '\n';
  for (NodeId id = 0; id < net.size(); ++id) {
    if (net.is_dead(id)) continue;
    const Node& n = net.node(id);
    ss << id << ':' << to_string(n.type);
    if (n.type == GateType::T1Port) ss << '.' << to_string(n.port);
    for (uint8_t i = 0; i < n.num_fanins; ++i) ss << ' ' << n.fanin(i);
    ss << '\n';
  }
  ss << "po:";
  for (std::size_t i = 0; i < net.num_pos(); ++i) {
    ss << ' ' << net.po(i) << '=' << net.po_name(i);
  }
  ss << '\n';
  return ss.str();
}

TEST(ServiceCanonical, ExactSignatureHashesTheDocumentedText) {
  // Cache keys (and disk blob names) are this hash: it must not drift.
  FlowParams params;
  params.opt.enable = false;
  const Network input = sparse_random(400);
  const FlowResult res = run_flow(input, params);
  ASSERT_GT(res.metrics.t1_used, 0u);  // T1 bodies and ports in the mapped net
  for (const Network* net : {&input, &res.mapped}) {
    EXPECT_EQ(service::exact_signature(*net), service::fnv1a(exact_signature_text(*net)));
  }
}

TEST(ServiceNetDiff, IdenticalNetworksDiffEmpty) {
  const Network net = tiny_net().cleanup();
  const service::NetDiff d = service::diff_networks(net, net);
  EXPECT_TRUE(d.comparable);
  EXPECT_TRUE(d.identical());
}

TEST(ServiceNetDiff, SingleGateSwapIsMinimal) {
  Network a("chain");
  const NodeId p0 = a.add_pi("p0");
  const NodeId p1 = a.add_pi("p1");
  const NodeId p2 = a.add_pi("p2");
  const NodeId g1 = a.add_and(p0, p1);
  const NodeId g2 = a.add_xor(g1, p2);
  const NodeId g3 = a.add_or(g2, p0);
  a.add_po(a.add_and(g3, g2), "o");

  Network b = a;
  const NodeId r = b.add_raw_gate(GateType::Or2, {p0, p1});
  b.substitute(g1, r);
  b.mark_dead(g1);

  const service::NetDiff d = service::diff_networks(a.cleanup(), b.cleanup());
  ASSERT_TRUE(d.comparable);
  EXPECT_FALSE(d.po_reroute);
  // The function edit dirties only the edited cell: the downstream cone is
  // recovered by structural match propagation, not stranded by the changed
  // simulation values.
  EXPECT_EQ(d.dirty_new.size(), 1u);
  EXPECT_EQ(d.dead_old.size(), 1u);
  ASSERT_EQ(d.replacements.size(), 1u);
}

TEST(ServiceNetDiff, InterfaceChangeIsNotComparable) {
  const Network a = tiny_net();
  Network b("other");
  b.add_pi("a");
  b.add_pi("b");
  b.add_po(b.add_and(b.pi(0), b.pi(1)), "s");
  const service::NetDiff d = service::diff_networks(a.cleanup(), b.cleanup());
  EXPECT_FALSE(d.comparable);
}

}  // namespace
}  // namespace t1sfq
