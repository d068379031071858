/// \file harness.cpp
/// \brief The repository benchmark: one seeded workload per process.
///
/// Three workloads call the library only through its public entry points and
/// time those calls from outside:
///
///   * `rand-default` — `run_flow(net)` with default `FlowParams` (4 phases,
///     T1 on, optimizer on for 3 rounds with the pass-level SAT guard) on
///     planted-cone random networks: the flow a library user gets.
///   * `table1-paper` — the paper's 1φ / 4φ / T1 flows (optimizer off) on the
///     eight full-size Table-I circuits, plus `verify::physics_check` on every
///     T1 output.
///   * `service-eco`  — one closed-loop client driving an in-process
///     `service::Server` through the wire codec. Each round is one single-gate
///     edit on an ECO session followed by three byte-identical replays from a
///     primed pool.
///
/// End-to-end metrics come from an untraced pass that runs for `--seconds`.
/// With `--trace 1` the same units of work are replayed with recording on,
/// and the per-layer metrics come from `FlowResult`/`FlowResponse` timings,
/// span sums and the obs registry. Every output is checked by an oracle that
/// is independent of the flow, outside the timed regions, and each oracle is
/// self-tested on a netlist with one primary output inverted.
///
/// The last line on stdout is one JSON object with the keys `correct`,
/// `attempted`, `failed` and `metrics`; t1bench/README.md lists the metrics.
///
/// Usage: t1bench --workload <rand-default|table1-paper|service-eco>
///                --seed N --seconds S --trace 0|1 [--trace-file path]
/// Requires `T1SFQ_CACHE_DIR` to name an empty private directory, so the
/// rewrite database is built, not loaded, during set-up.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "benchmarks/argparse.hpp"
#include "benchmarks/random_net.hpp"
#include "benchmarks/suite.hpp"
#include "core/api.hpp"
#include "core/flow.hpp"
#include "cost/disk_cache.hpp"
#include "network/simulation.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "opt/rewrite_db.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "sfq/pulse_sim.hpp"
#include "verify/physics_check.hpp"

using namespace t1sfq;

namespace {

// -- Workload sizes ---------------------------------------------------------
// rand-default: the scaling bench's family at ~2k gates, where opt.verify is
// still ~96% of the flow. Several circuits per run average out how much one
// seed's circuit happens to cost.
constexpr unsigned kRandGates = 2000;
constexpr unsigned kRandCircuits = 6;
// service-eco: one size class, so warm percentiles never straddle two sizes.
// Writes rotate over many sessions so a few seed-specific session circuits do
// not decide the round time.
constexpr unsigned kPoolSize = 16;
constexpr unsigned kPoolGates = 1000;
constexpr unsigned kSessions = 16;
constexpr unsigned kReadsPerRound = 3;
// Set-up is repeated and its median reported, so one slow repetition does
// not decide setup_s. The service set-up primes 16 cold flows, so it is
// repeated fewer times.
constexpr unsigned kSetupReps = 5;
constexpr unsigned kServiceSetupReps = 3;
// Physics checks per rand-default output, each with its own vectors.
constexpr unsigned kPhysicsRepeats = 3;
// Reference-model vectors per Table-I circuit (64 per word).
constexpr unsigned kReferenceWords = 2;

// -- Metric catalogue (mirrors BENCHMARK.json) --------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},     {"flow_s", "s"},       {"physics_s", "s"},
    {"req_per_s", "1/s"}, {"peak_rss_mb", "MB"}, {"area_jj", "JJ"},
    {"dffs", "count"},    {"depth_cycles", "cycles"},
};

constexpr MetricDef kPerLayer[] = {
    {"opt.verify.time_s", "s"},
    {"opt.verify.checks", "count"},
    {"opt.verify.share", "fraction"},
    {"opt.time_s", "s"},
    {"opt.cut-rewriting.time_s", "s"},
    {"opt.balancing.time_s", "s"},
    {"opt.resubstitution.time_s", "s"},
    {"flow.opt.self_s", "s"},
    {"opt.rewrite.candidates", "count"},
    {"opt.rewrite.committed", "count"},
    {"opt.resub.sat_conflicts", "count"},
    {"opt.est_gain_jj", "JJ"},
    {"cleanup.time_s", "s"},
    {"detect.time_s", "s"},
    {"detect.candidates", "count"},
    {"detect.guard.accepts", "count"},
    {"detect.guard.declines", "count"},
    {"detect.guard.rescues", "count"},
    {"detect.rounds", "count"},
    {"detect.counterfactual_kept", "count"},
    {"t1_used", "count"},
    {"assign.time_s", "s"},
    {"sched.sweeps", "count"},
    {"sched.nodes_evaluated", "count"},
    {"sched.moves_committed", "count"},
    {"incr.stage_relaxations", "count"},
    {"incr.full_rebuilds", "count"},
    {"insert.time_s", "s"},
    {"physics.vectors", "count"},
    {"physics.checked_edges", "count"},
    {"service.codec.time_ms", "ms"},
    {"service.overhead.cold_ms", "ms"},
    {"service.overhead.eco_ms", "ms"},
    {"service.overhead.warm_ms", "ms"},
    {"service.warm_hit_rate", "fraction"},
    {"service.eco_hit_rate", "fraction"},
    {"service.eco.fallback.t1_region", "fraction"},
    {"service.eco.fallback.absorbed", "fraction"},
    {"service.cold_p50_ms", "ms"},
    {"service.cold_p90_ms", "ms"},
    {"service.eco_p50_ms", "ms"},
    {"service.warm_p50_ms", "ms"},
    {"service.warm_p90_ms", "ms"},
    {"cost.rewrite_db.time_s", "s"},
    {"trace.overhead", "ratio"},
    {"trace.coverage", "fraction"},
};

// Registry counters reported per unit of work in the traced pass.
constexpr const char* kCounters[] = {
    "opt.verify.checks",      "opt.rewrite.candidates",     "opt.rewrite.committed",
    "opt.resub.sat_conflicts", "detect.candidates",         "detect.guard.accepts",
    "detect.guard.declines",  "detect.guard.rescues",       "detect.rounds",
    "detect.counterfactual_kept", "sched.sweeps",           "sched.nodes_evaluated",
    "sched.moves_committed",  "incr.stage_relaxations",     "incr.full_rebuilds",
};

// -- Small helpers ------------------------------------------------------------

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// SplitMix64: independent sub-seeds from the workload seed.
uint64_t sub_seed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Linearly interpolated quantile (q = 0.5 is the median).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double total(const std::vector<double>& v) { return std::accumulate(v.begin(), v.end(), 0.0); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double stage_ms(const FlowTimings& t) {
  return t.cleanup_ms + t.opt_ms + t.detect_ms + t.assign_ms + t.insert_ms;
}

void add_timings(FlowTimings& acc, const FlowTimings& t) {
  acc.cleanup_ms += t.cleanup_ms;
  acc.opt_ms += t.opt_ms;
  acc.detect_ms += t.detect_ms;
  acc.assign_ms += t.assign_ms;
  acc.insert_ms += t.insert_ms;
}

/// The Table-I metrics and physical cell counts two runs of one input must
/// agree on (the fields the service tests pin for ECO against cold).
bool same_metrics(const FlowMetrics& a, const FlowMetrics& b) {
  return a.num_gates == b.num_gates && a.num_dffs == b.num_dffs &&
         a.num_splitters == b.num_splitters && a.area_jj == b.area_jj &&
         a.depth_cycles == b.depth_cycles && a.t1_used == b.t1_used;
}

/// Knobs that actually ran, derived from the parameters passed to the flow.
std::string describe(const FlowParams& p) {
  std::ostringstream ss;
  ss << "phases=" << p.clk.phases << " t1=" << p.use_t1
     << " engine=" << (p.engine == PhaseEngine::ExactMilp ? "milp" : "heuristic")
     << " slack=" << p.output_slack << " physics_check=" << p.physics_check
     << " opt=" << p.opt.enable;
  if (p.opt.enable) {
    ss << " opt.rounds=" << p.opt.rounds << " opt.verify=" << p.opt.verify
       << " opt.verify_conflict_budget=" << p.opt.verify_conflict_budget
       << " opt.cut_rewriting=" << p.opt.cut_rewriting
       << " opt.balancing=" << p.opt.balancing
       << " opt.resubstitution=" << p.opt.resubstitution
       << " opt.incremental=" << p.opt.incremental
       << " opt.partition_jobs=" << p.opt.partition_jobs;
  }
  return ss.str();
}

/// Inverts primary output 0 in place: the oracles' self-test input. A
/// physical netlist's stage vector grows with the inverter, one stage after
/// its driver.
void invert_po(Network& net, std::vector<Stage>* stage = nullptr) {
  const NodeId driver = net.po(0);
  // Raw, so structural hashing cannot hand back an existing inverter.
  net.set_po(0, net.add_raw_gate(GateType::Not, {driver}));
  if (stage != nullptr) stage->push_back((*stage)[driver] + 1);
}

/// One rewrite-database build into the private cache directory: the work a
/// process pays on a cold cache. The first build goes through
/// `RewriteDb::instance()`, which also makes the database resident for the
/// flows; later set-up repetitions rebuild the same image through the public
/// constructor, because the in-process registry would answer from memory.
double build_rewrite_db(bool first) {
  const auto t0 = Clock::now();
  if (first) {
    RewriteDb::instance();
  } else {
    const RewriteDb::Params params;
    const RewriteDb db(params);
    write_blob(cache_directory() + "/" + RewriteDb::cache_file_name(params),
               db.serialize(params));
  }
  return seconds_since(t0);
}

// -- Report -------------------------------------------------------------------

class Report {
 public:
  explicit Report(bool trace) : trace_(trace) {}

  void set(const std::string& name, double value, std::size_t samples) {
    values_[name] = {value, samples};
  }
  /// One operation and its oracle verdict (feeds attempted/failed).
  void op(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// An operation already counted whose later oracle failed.
  void late_failure() { ++failed_; }
  /// A defect of the benchmark itself (self-test miss, nondeterminism).
  void invalid(const std::string& why) {
    std::cout << "error: " << why << "\n";
    valid_ = false;
  }
  bool trace() const { return trace_; }

  /// Prints every metric of the mode with unit and sample count, then the
  /// JSON result line. Returns the process exit code.
  int finish() const {
    std::ostringstream json;
    json << std::setprecision(12);
    json << "{\"correct\": " << (correct() ? "true" : "false")
         << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
         << ", \"metrics\": {";
    bool first = true;
    for (const MetricDef& d : trace_ ? std::vector<MetricDef>(std::begin(kPerLayer),
                                                              std::end(kPerLayer))
                                     : std::vector<MetricDef>(std::begin(kEndToEnd),
                                                              std::end(kEndToEnd))) {
      const auto it = values_.find(d.name);
      if (it == values_.end() && !trace_) {
        std::cout << "error: end-to-end metric " << d.name << " was not measured\n";
        return 2;
      }
      const double v = it == values_.end() || !std::isfinite(it->second.first)
                           ? 0.0
                           : it->second.first;
      const std::size_t n = it == values_.end() ? 0 : it->second.second;
      std::cout << "metric " << d.name << " = " << std::setprecision(6) << v << " " << d.unit;
      if (n > 0) {
        std::cout << " (n=" << n << ")\n";
      } else {
        std::cout << " (no samples: not on this workload's path in this run)\n";
      }
      json << (first ? "" : ", ") << "\"" << d.name << "\": {\"value\": " << v
           << ", \"unit\": \"" << d.unit << "\"}";
      first = false;
    }
    json << "}}";
    std::cout << "fail_rate = "
              << (attempted_ ? static_cast<double>(failed_) / static_cast<double>(attempted_)
                             : 0.0)
              << " fraction (" << failed_ << "/" << attempted_ << " operations)\n";
    std::cout << json.str() << std::endl;
    return correct() ? 0 : 1;
  }

 private:
  bool correct() const { return valid_ && failed_ == 0 && attempted_ > 0; }

  bool trace_;
  bool valid_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::map<std::string, std::pair<double, std::size_t>> values_;
};

void caveats() {
  std::cout << "caveat: obs::Registry is process-global; this traced workload is the "
               "only one in its process\n"
               "caveat: detect.* counters include the work of the counterfactual probe\n";
}

// -- Traced-pass capture ------------------------------------------------------

void begin_recording() {
  obs::Registry::instance().reset();
  obs::clear_trace();
}

struct SpanTotals {
  std::map<std::string, double> sum_s;  ///< by span name
  double opt_self_s = 0.0;              ///< flow.opt minus its child spans

  double of(const std::string& name) const {
    const auto it = sum_s.find(name);
    return it == sum_s.end() ? 0.0 : it->second;
  }
};

SpanTotals span_totals() {
  const std::vector<obs::TraceEvent> events = obs::trace_events();
  std::unordered_map<uint64_t, uint64_t> child_us;
  for (const auto& e : events) {
    if (e.parent_id != 0) child_us[e.parent_id] += e.dur_us;
  }
  SpanTotals t;
  for (const auto& e : events) {
    t.sum_s[e.name] += static_cast<double>(e.dur_us) * 1e-6;
    if (e.name == "flow.opt") {
      t.opt_self_s +=
          (static_cast<double>(e.dur_us) - static_cast<double>(child_us[e.id])) * 1e-6;
    }
  }
  return t;
}

/// Registry counters, span sums and stage times of a traced pass, per unit
/// of work; also writes the Chrome trace.
void report_layers(Report& report, std::size_t units, const FlowTimings& stages,
                   double traced_s, const std::string& trace_file) {
  const double per = 1.0 / static_cast<double>(units);
  const obs::Registry& reg = obs::Registry::instance();
  for (const char* name : kCounters) {
    report.set(name, static_cast<double>(reg.counter(name)) * per, units);
  }
  const SpanTotals spans = span_totals();
  report.set("opt.verify.time_s", spans.of("opt.verify") * per, units);
  report.set("opt.cut-rewriting.time_s", spans.of("cut-rewriting") * per, units);
  report.set("opt.balancing.time_s", spans.of("balancing") * per, units);
  report.set("opt.resubstitution.time_s", spans.of("resubstitution") * per, units);
  report.set("flow.opt.self_s", spans.opt_self_s * per, units);
  report.set("cleanup.time_s", stages.cleanup_ms * 1e-3 * per, units);
  report.set("opt.time_s", stages.opt_ms * 1e-3 * per, units);
  report.set("detect.time_s", stages.detect_ms * 1e-3 * per, units);
  report.set("assign.time_s", stages.assign_ms * 1e-3 * per, units);
  report.set("insert.time_s", stages.insert_ms * 1e-3 * per, units);
  if (spans.of("opt.verify") > 0.0) {
    report.set("opt.verify.share", spans.of("opt.verify") / traced_s, units);
  }
  if (!trace_file.empty()) {
    if (obs::write_chrome_trace(trace_file)) {
      std::cout << "chrome trace: " << trace_file << "\n";
    } else {
      std::cout << "warning: could not write the Chrome trace to " << trace_file << "\n";
    }
  }
  caveats();
}

// -- rand-default -------------------------------------------------------------

/// Independent oracle for one flow output: word-parallel simulation and
/// pulse-level simulation of the physical netlist against the flow's input.
bool rand_output_ok(const Network& out, const std::vector<Stage>& stage,
                    const Network& golden, const MultiphaseConfig& clk, uint64_t seed) {
  try {
    return random_simulation_equal(out, golden, /*rounds=*/8, seed) &&
           pulse_verify(out, stage, clk, golden, /*rounds=*/2, seed);
  } catch (const std::exception&) {
    return false;
  }
}

std::vector<Network> rand_inputs(uint64_t seed) {
  std::vector<Network> nets;
  for (unsigned i = 0; i < kRandCircuits; ++i) {
    nets.push_back(bench::random_network(sub_seed(seed, i), kRandGates / 16, kRandGates,
                                         bench::RandomPoPolicy::AllSinks,
                                         /*plant_cone_every=*/24));
    nets.back().set_name("rand" + std::to_string(kRandGates) + "-" + std::to_string(i));
  }
  return nets;
}

int run_rand_default(uint64_t seed, double seconds, Report& report,
                     const std::string& trace_file) {
  const FlowParams params{};  // the default-knob flow
  std::cout << "config: run_flow(net, FlowParams{}) " << describe(params) << "\n";

  std::vector<double> setup_s;
  double db_s = 0.0;
  std::vector<Network> nets;
  for (unsigned rep = 0; rep < (report.trace() ? 1 : kSetupReps); ++rep) {
    const auto t0 = Clock::now();
    nets = rand_inputs(seed);
    const double db = build_rewrite_db(rep == 0);
    if (rep == 0) db_s = db;
    setup_s.push_back(seconds_since(t0));
  }
  std::cout << "inputs: " << nets.size() << " x random_network(" << kRandGates / 16
            << " PIs, " << kRandGates << " gates, AllSinks, plant_cone_every=24), POs:";
  for (const Network& n : nets) std::cout << " " << n.num_pos();
  std::cout << "\n";

  // Untraced pass: cycle over the circuits until the window closes, at least
  // one flow per circuit.
  std::vector<double> flow_s, physics_s;
  std::vector<FlowMetrics> first(nets.size());
  std::size_t vectors = 0, edges = 0;
  const auto window = Clock::now();
  for (std::size_t i = 0; i < nets.size() || seconds_since(window) < seconds; ++i) {
    const Network& net = nets[i % nets.size()];
    try {
      const auto t0 = Clock::now();
      const FlowResult res = run_flow(net, params);
      flow_s.push_back(seconds_since(t0));

      // Three physics checks with different vectors: one ~70 ms check is too
      // short a sample of a noisy machine.
      bool ok = true;
      for (unsigned v = 0; v < kPhysicsRepeats; ++v) {
        verify::PhysicsCheckParams pp;
        pp.seed = sub_seed(seed, 100 + kPhysicsRepeats * i + v);
        const auto t1 = Clock::now();
        const verify::PhysicsReport phys =
            verify::physics_check(res.physical, params.clk, net, pp);
        physics_s.push_back(seconds_since(t1));
        vectors += phys.vectors;
        edges += phys.checked_edges;
        ok = ok && phys.ok;
      }
      ok = ok && rand_output_ok(res.physical.net, res.physical.stage, net, params.clk,
                                sub_seed(seed, 200 + i));
      if (i >= nets.size()) {
        if (!same_metrics(res.metrics, first[i % nets.size()])) {
          report.invalid("nondeterministic flow metrics on " + net.name());
        }
      } else {
        first[i] = res.metrics;
      }
      if (i == 0) {
        // Self-test: the same oracle must count a PO-inverted output.
        Network bad = res.physical.net;
        std::vector<Stage> stage = res.physical.stage;
        invert_po(bad, &stage);
        if (rand_output_ok(bad, stage, net, params.clk, sub_seed(seed, 200))) {
          report.invalid("oracle self-test: a PO-inverted rand-default output passed");
        } else {
          std::cout << "selftest: the simulation + pulse oracle counted the PO-inverted "
                       "output as a failure\n";
        }
      }
      report.op(ok);
    } catch (const std::exception& e) {
      std::cout << "flow failed on " << net.name() << ": " << e.what() << "\n";
      report.op(false);
    }
  }
  const std::size_t units = flow_s.size();
  if (units == 0) return report.finish();
  std::cout << "samples flow_s:";
  for (const double s : flow_s) std::cout << " " << std::setprecision(4) << s;
  std::cout << "\n";

  if (!report.trace()) {
    uint64_t area = 0, dffs = 0, depth = 0;
    for (const FlowMetrics& m : first) {
      area += m.area_jj;
      dffs += m.num_dffs;
      depth += static_cast<uint64_t>(m.depth_cycles);
    }
    report.set("setup_s", median(setup_s), setup_s.size());
    report.set("flow_s", median(flow_s), units);
    report.set("physics_s", median(physics_s), physics_s.size());
    report.set("req_per_s", static_cast<double>(units) / total(flow_s), units);
    report.set("peak_rss_mb", peak_rss_mb(), 1);
    report.set("area_jj", static_cast<double>(area), first.size());
    report.set("dffs", static_cast<double>(dffs), first.size());
    report.set("depth_cycles", static_cast<double>(depth), first.size());
    return report.finish();
  }

  // Traced pass: the same flows, recording on.
  FlowParams traced = params;
  traced.obs = true;
  begin_recording();
  FlowTimings stages{};
  double traced_s = 0.0, gain_jj = 0.0, t1_used = 0.0;
  for (std::size_t i = 0; i < units; ++i) {
    const Network& net = nets[i % nets.size()];
    const auto t0 = Clock::now();
    const FlowResult res = run_flow(net, traced);
    traced_s += seconds_since(t0);
    add_timings(stages, res.timings);
    gain_jj += static_cast<double>(res.metrics.pre_opt_area_jj) -
               static_cast<double>(res.metrics.opt_area_jj);
    t1_used += static_cast<double>(res.metrics.t1_used);
    if (!same_metrics(res.metrics, first[i % nets.size()])) {
      report.invalid("traced flow differs from untraced on " + net.name());
    }
  }
  const double per = 1.0 / static_cast<double>(units);
  report_layers(report, units, stages, traced_s, trace_file);
  report.set("opt.est_gain_jj", gain_jj * per, units);
  report.set("t1_used", t1_used * per, units);
  // Per physics check, the unit physics_s is reported in.
  const double checks = static_cast<double>(physics_s.size());
  report.set("physics.vectors", static_cast<double>(vectors) / checks, physics_s.size());
  report.set("physics.checked_edges", static_cast<double>(edges) / checks, physics_s.size());
  report.set("cost.rewrite_db.time_s", db_s, 1);
  report.set("trace.overhead", traced_s / total(flow_s), units);
  report.set("trace.coverage", stage_ms(stages) * 1e-3 / traced_s, units);
  return report.finish();
}

// -- table1-paper -------------------------------------------------------------

/// Independent oracle: the physical netlist against the circuit's bit-exact
/// software reference model on seeded random vectors.
bool matches_reference(const Network& out, const bench::BenchmarkCase& c, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<uint64_t> words(out.num_pis());
  std::vector<bool> in(out.num_pis());
  for (unsigned w = 0; w < kReferenceWords; ++w) {
    for (uint64_t& x : words) x = rng();
    const std::vector<uint64_t> po = simulate_words(out, words);
    for (unsigned bit = 0; bit < 64; ++bit) {
      for (std::size_t i = 0; i < in.size(); ++i) in[i] = (words[i] >> bit) & 1u;
      const std::vector<bool> want = c.reference(in);
      if (want.size() != po.size()) return false;
      for (std::size_t o = 0; o < po.size(); ++o) {
        if (static_cast<bool>((po[o] >> bit) & 1u) != want[o]) return false;
      }
    }
  }
  return true;
}

struct Table1Pass {
  double flow_s = 0.0;             ///< 24 flows, oracle excluded
  std::vector<double> physics_s;  ///< physics_check per T1 output
  std::vector<FlowMetrics> phi1, phi4, t1;
  FlowTimings stages{};
  std::size_t vectors = 0, edges = 0;
};

int run_table1_paper(uint64_t seed, double seconds, Report& report,
                     const std::string& trace_file) {
  // The paper's three flows, all with the optimizer off (the v1 default).
  const FlowRequest configs[3] = {
      FlowRequest::Builder(Network()).phases(1).use_t1(false).build(),
      FlowRequest::Builder(Network()).phases(4).use_t1(false).build(),
      FlowRequest::Builder(Network()).phases(4).use_t1(true).build(),
  };
  const char* const labels[3] = {"1phi", "4phi", "T1"};
  FlowParams params[3];
  for (int k = 0; k < 3; ++k) {
    params[k] = configs[k].to_flow_params();
    std::cout << "config " << labels[k] << ": " << configs[k].config_signature() << " | "
              << describe(params[k]) << "\n";
  }

  std::vector<double> setup_s;
  double db_s = 0.0;
  std::vector<bench::BenchmarkCase> cases;
  std::vector<Network> nets;
  for (unsigned rep = 0; rep < (report.trace() ? 1 : kSetupReps); ++rep) {
    const auto t0 = Clock::now();
    cases = bench::make_suite();
    nets.clear();
    for (const auto& c : cases) nets.push_back(c.generate());
    const double db = build_rewrite_db(rep == 0);
    if (rep == 0) db_s = db;
    setup_s.push_back(seconds_since(t0));
  }

  // One pass: the 24 flows, then (untraced) the oracles on the 8 T1 outputs.
  const auto run_pass = [&](bool traced, uint64_t pass_seed) {
    Table1Pass p;
    std::vector<PhysicalNetlist> t1_out;
    for (std::size_t c = 0; c < nets.size(); ++c) {
      for (int k = 0; k < 3; ++k) {
        FlowParams fp = params[k];
        fp.obs = traced;
        const auto t0 = Clock::now();
        try {
          FlowResult res = run_flow(nets[c], fp);
          p.flow_s += seconds_since(t0);
          add_timings(p.stages, res.timings);
          (k == 0 ? p.phi1 : k == 1 ? p.phi4 : p.t1).push_back(res.metrics);
          if (k == 2) t1_out.push_back(std::move(res.physical));
          if (k != 2 && !traced) report.op(true);  // T1 flows count after their oracle
        } catch (const std::exception& e) {
          std::cout << "flow " << labels[k] << " failed on " << cases[c].name << ": "
                    << e.what() << "\n";
          report.op(false);
          return p;
        }
      }
    }
    if (traced) return p;
    for (std::size_t c = 0; c < nets.size(); ++c) {
      verify::PhysicsCheckParams pp;
      pp.seed = sub_seed(pass_seed, c);
      const auto t0 = Clock::now();
      const verify::PhysicsReport phys =
          verify::physics_check(t1_out[c], params[2].clk, nets[c], pp);
      p.physics_s.push_back(seconds_since(t0));
      p.vectors += phys.vectors;
      p.edges += phys.checked_edges;
      const bool ok = phys.ok && matches_reference(t1_out[c].net, cases[c],
                                                   sub_seed(pass_seed, 50 + c));
      if (!ok) std::cout << "oracle failed on the T1 output of " << cases[c].name << "\n";
      report.op(ok);
    }
    return p;
  };

  // Untraced passes until the window closes (at least one).
  std::vector<Table1Pass> passes;
  const auto window = Clock::now();
  do {
    passes.push_back(run_pass(false, sub_seed(seed, passes.size())));
    const Table1Pass& p = passes.back();
    if (p.t1.size() != nets.size()) return report.finish();  // a flow threw
    if (!std::equal(p.t1.begin(), p.t1.end(), passes[0].t1.begin(), same_metrics)) {
      report.invalid("nondeterministic Table-I metrics across passes");
    }
  } while (seconds_since(window) < seconds);
  const Table1Pass& base = passes.front();

  // Self-test: both T1 oracles must count a PO-inverted output.
  {
    const FlowResult res = run_flow(nets[0], params[2]);
    PhysicalNetlist bad = res.physical;
    invert_po(bad.net, &bad.stage);
    const bool ref_ok = matches_reference(bad.net, cases[0], sub_seed(seed, 999));
    const bool phys_ok = verify::physics_check(bad, params[2].clk, nets[0]).ok;
    if (ref_ok || phys_ok) {
      report.invalid("oracle self-test: a PO-inverted T1 output passed");
    } else {
      std::cout << "selftest: the reference-model and physics oracles counted the "
                   "PO-inverted "
                << cases[0].name << " output as a failure\n";
    }
  }

  // Per-circuit rows and the paper's headline ratios beside the suite sums.
  uint64_t area = 0, dffs = 0, depth = 0;
  double ratio_sum = 0.0;
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const FlowMetrics& m = base.t1[c];
    area += m.area_jj;
    dffs += m.num_dffs;
    depth += static_cast<uint64_t>(m.depth_cycles);
    const double ratio =
        static_cast<double>(m.area_jj) / static_cast<double>(base.phi4[c].area_jj);
    ratio_sum += ratio;
    const std::string row = "detail table1." + cases[c].name + ".";
    std::cout << row << "area_jj = " << m.area_jj << " JJ\n"
              << row << "dffs = " << m.num_dffs << " count\n"
              << row << "depth_cycles = " << m.depth_cycles << " cycles\n"
              << row << "t1_used = " << m.t1_used << " count\n"
              << row << "t1_over_4phi_area = " << std::setprecision(4) << ratio << " ratio\n";
  }
  std::cout << "detail table1.avg_t1_over_4phi_area = " << std::setprecision(4)
            << ratio_sum / static_cast<double>(cases.size()) << " ratio\n"
            << "detail table1.adder_t1_over_4phi_area = "
            << static_cast<double>(base.t1[0].area_jj) /
                   static_cast<double>(base.phi4[0].area_jj)
            << " ratio (" << cases[0].name << ")\n";

  // physics_s: the 8 T1 outputs' checks, each the median over the passes.
  std::vector<double> flow_s;
  double physics_s = 0.0;
  for (const Table1Pass& p : passes) flow_s.push_back(p.flow_s);
  for (std::size_t c = 0; c < nets.size(); ++c) {
    std::vector<double> per_pass;
    for (const Table1Pass& p : passes) per_pass.push_back(p.physics_s[c]);
    physics_s += median(per_pass);
  }
  const std::size_t units = passes.size();
  const std::size_t flows = 3 * nets.size() * units;
  std::cout << "samples flow_s:";
  for (const double s : flow_s) std::cout << " " << std::setprecision(4) << s;
  std::cout << "\n";
  if (!report.trace()) {
    report.set("setup_s", median(setup_s), setup_s.size());
    report.set("flow_s", median(flow_s), units);
    report.set("physics_s", physics_s, units);
    report.set("req_per_s", static_cast<double>(flows) / total(flow_s), flows);
    report.set("peak_rss_mb", peak_rss_mb(), 1);
    report.set("area_jj", static_cast<double>(area), cases.size());
    report.set("dffs", static_cast<double>(dffs), cases.size());
    report.set("depth_cycles", static_cast<double>(depth), cases.size());
    return report.finish();
  }

  begin_recording();
  FlowTimings stages{};
  double traced_s = 0.0, t1_used = 0.0;
  for (std::size_t u = 0; u < units; ++u) {
    const Table1Pass p = run_pass(true, 0);
    traced_s += p.flow_s;
    add_timings(stages, p.stages);
    for (const FlowMetrics& m : p.t1) t1_used += static_cast<double>(m.t1_used);
  }
  report_layers(report, units, stages, traced_s, trace_file);
  report.set("t1_used", t1_used / static_cast<double>(units), units);
  report.set("physics.vectors", static_cast<double>(base.vectors), units);
  report.set("physics.checked_edges", static_cast<double>(base.edges), units);
  report.set("cost.rewrite_db.time_s", db_s, 1);
  report.set("trace.overhead", traced_s / total(flow_s), units);
  report.set("trace.coverage", stage_ms(stages) * 1e-3 / traced_s, units);
  return report.finish();
}

// -- service-eco ----------------------------------------------------------------

/// The \p pick-th And2/Or2 gate of \p net (modulo their number).
NodeId and_or_gate(const Network& net, uint64_t pick) {
  std::vector<NodeId> candidates;
  for (NodeId id = 0; id < static_cast<NodeId>(net.size()); ++id) {
    const Node& n = net.node(id);
    if (!n.dead && (n.type == GateType::And2 || n.type == GateType::Or2)) {
      candidates.push_back(id);
    }
  }
  if (candidates.empty()) throw std::runtime_error("and_or_gate: no And2/Or2 gate");
  return candidates[pick % candidates.size()];
}

/// A session edit: \p victim swapped for its And2/Or2 dual, a function fix
/// that keeps the structure. Returns the compacted network; \p swapped
/// receives the replacement gate's id in it.
Network swap_gate(const Network& base, NodeId victim, NodeId* swapped) {
  Network net = base;
  const Node n = net.node(victim);  // copy: add_raw_gate reallocates
  const GateType dual = n.type == GateType::And2 ? GateType::Or2 : GateType::And2;
  const NodeId repl = net.add_raw_gate(dual, {n.fanin(0), n.fanin(1)});
  net.substitute(victim, repl);
  net.mark_dead(victim);
  std::vector<NodeId> old_to_new;
  Network out = net.cleanup(&old_to_new);
  *swapped = old_to_new[repl];
  return out;
}

/// What the client observed, accumulated over a pass.
struct ServiceLog {
  std::vector<double> round_ms;
  std::map<FlowTier, std::vector<double>> tier_ms;  ///< client latency per tier
  std::map<FlowTier, double> overhead_ms;           ///< Server::handle minus flow time
  double client_ms = 0.0;
  double codec_ms = 0.0;
  FlowTimings stages{};  ///< flow stage times of cold and eco responses
  std::size_t requests = 0, writes = 0, reads = 0, warm_reads = 0, eco_writes = 0;
  /// Writes (payload, served metrics) for the bit-identity oracle: the first
  /// (cold) write of each session and every ECO-served write.
  std::vector<std::pair<std::string, FlowMetrics>> checks;
  std::vector<FlowMetrics> first_writes;  ///< served metrics of each session's first write
};

class ServiceClient {
 public:
  /// Builds a server with disk blobs off and primes the pool once each
  /// without a session. A session is established by its first write.
  ServiceClient(const std::vector<Network>& pool, const std::vector<Network>& session_nets,
                bool observe) {
    service::ServerConfig cfg;
    cfg.disk_cache = false;  // hit rates describe this process only
    cfg.observe = observe;
    server_ = std::make_unique<service::Server>(cfg);
    for (const Network& net : pool) {
      pool_payloads_.push_back(
          service::encode_flow_request(FlowRequest::Builder(net).build()));
      const FlowResponse r = service::parse_response(server_->handle(pool_payloads_.back()));
      if (!r.ok) throw std::runtime_error("priming failed: " + r.message);
      pool_metrics_.push_back(r.metrics);
    }
    for (const Network& net : session_nets) {
      sessions_.push_back({"t1bench-eco-" + std::to_string(sessions_.size()), net});
    }
  }

  const std::vector<FlowMetrics>& pool_metrics() const { return pool_metrics_; }

  /// One closed-loop round: one write to the next session, then
  /// kReadsPerRound replays. \p report, when given, receives each
  /// operation's oracle verdict.
  void round(uint64_t seed, std::size_t r, ServiceLog& log, Report* report) {
    double round_ms = 0.0;
    Session& s = sessions_[r % sessions_.size()];
    // Each session alternates trying a fix on a random gate and reverting
    // it, so its netlist never drifts from the circuit it started from.
    const NodeId victim =
        s.tried != kNullNode ? s.tried : and_or_gate(s.net, sub_seed(seed, 1000 + r));
    NodeId swapped = kNullNode;
    s.net = swap_gate(s.net, victim, &swapped);
    s.tried = s.tried != kNullNode ? kNullNode : swapped;

    const auto t0 = Clock::now();
    std::string payload =
        service::encode_flow_request(FlowRequest::Builder(s.net).session(s.id).build());
    const FlowResponse w = send(payload, t0, log, round_ms);
    ++log.writes;
    const bool first = r < sessions_.size();
    const bool eco = w.ok && w.tier == FlowTier::Eco;
    if (eco) ++log.eco_writes;
    if (w.ok && first) log.first_writes.push_back(w.metrics);
    if (w.ok && (first || eco)) log.checks.emplace_back(payload, w.metrics);
    if (report) report->op(w.ok);

    for (unsigned j = 0; j < kReadsPerRound; ++j) {
      const std::size_t idx = (kReadsPerRound * r + j) % pool_payloads_.size();
      const FlowResponse resp = send(pool_payloads_[idx], Clock::now(), log, round_ms);
      ++log.reads;
      if (resp.ok && resp.tier == FlowTier::Warm) ++log.warm_reads;
      if (report) report->op(resp.ok && same_metrics(resp.metrics, pool_metrics_[idx]));
    }
    log.round_ms.push_back(round_ms);
  }

 private:
  /// Sends one payload whose client clock started at \p t0 (before encoding)
  /// and records the latency split.
  FlowResponse send(const std::string& payload, Clock::time_point t0, ServiceLog& log,
                    double& round_ms) {
    const auto t1 = Clock::now();
    const std::string reply = server_->handle(payload);
    const auto t2 = Clock::now();
    FlowResponse resp;
    try {
      resp = service::parse_response(reply);
    } catch (const std::exception& e) {
      resp.ok = false;
      resp.message = e.what();
    }
    const auto t3 = Clock::now();
    const double client = ms_between(t0, t3);
    round_ms += client;
    ++log.requests;
    log.client_ms += client;
    log.codec_ms += ms_between(t0, t1) + ms_between(t2, t3);
    if (!resp.ok) {
      std::cout << "request failed: " << resp.message << "\n";
      return resp;
    }
    log.tier_ms[resp.tier].push_back(client);
    // A warm response carries the timings of the run that filled the cache;
    // no flow ran for it, so all of its handle time is service overhead.
    const double flow_ms = resp.tier == FlowTier::Warm ? 0.0 : stage_ms(resp.timings);
    log.overhead_ms[resp.tier] += ms_between(t1, t2) - flow_ms;
    if (resp.tier != FlowTier::Warm) add_timings(log.stages, resp.timings);
    return resp;
  }

  struct Session {
    std::string id;
    Network net;               ///< the client's current netlist
    NodeId tried = kNullNode;  ///< gate of the fix to revert next, if any
  };

  std::unique_ptr<service::Server> server_;
  std::vector<Session> sessions_;
  std::vector<std::string> pool_payloads_;
  std::vector<FlowMetrics> pool_metrics_;
};

/// ECO bit-identity oracle: an in-process `run_flow(FlowRequest)` of the
/// netlist the server received must reproduce the served metrics. Runs the
/// physics oracle too and reports its time through \p physics_s.
bool served_output_ok(const std::string& payload, const FlowMetrics& served,
                      double* physics_s, bool invert = false) {
  FlowRequest req = service::parse_request(payload).flow;
  req.session.clear();
  req.physics_check = true;
  if (invert) invert_po(req.network);
  const FlowResponse r = run_flow(req);
  if (physics_s != nullptr) *physics_s = r.timings.physics_ms * 1e-3;
  return r.ok && same_metrics(r.metrics, served);
}

int run_service_eco(uint64_t seed, double seconds, Report& report,
                    const std::string& trace_file) {
  const FlowRequest shape = FlowRequest::Builder(Network()).session("s").build();
  std::cout << "config: " << shape.config_signature() << " | "
            << describe(shape.to_flow_params()) << " | disk_cache=0 cache_entries="
            << service::ServerConfig{}.cache_entries << " | closed loop, 1 client, "
            << kSessions << " sessions, 1 write + " << kReadsPerRound << " reads per round\n";

  // The pool and the session circuits share one size class and generator.
  const auto make_inputs = [&](std::vector<Network>& pool, std::vector<Network>& sessions) {
    const auto circuit = [&](uint64_t stream, const std::string& name) {
      Network net = bench::random_network(sub_seed(seed, stream), 64, kPoolGates,
                                          bench::RandomPoPolicy::AllSinks,
                                          /*plant_cone_every=*/200);
      net.set_name(name);
      return net;
    };
    pool.clear();
    sessions.clear();
    for (unsigned i = 0; i < kPoolSize; ++i) {
      pool.push_back(circuit(300 + i, "pool" + std::to_string(i)));
    }
    for (unsigned i = 0; i < kSessions; ++i) {
      sessions.push_back(circuit(400 + i, "session" + std::to_string(i)));
    }
  };

  std::vector<double> setup_s;
  double db_s = 0.0;
  std::vector<Network> pool, session_nets;
  std::unique_ptr<ServiceClient> client;
  for (unsigned rep = 0; rep < (report.trace() ? 1 : kServiceSetupReps); ++rep) {
    client.reset();
    const auto t0 = Clock::now();
    make_inputs(pool, session_nets);
    const double db = build_rewrite_db(rep == 0);
    if (rep == 0) db_s = db;
    client = std::make_unique<ServiceClient>(pool, session_nets, /*observe=*/false);
    setup_s.push_back(seconds_since(t0));
  }

  // Untraced closed loop, at least one write per session. The oracle checks
  // each session's first write and every ECO-served write between rounds,
  // outside the timed requests, so physics_s samples the whole window and
  // covers every session circuit.
  ServiceLog log;
  std::size_t rounds = 0;
  std::vector<double> physics_s;
  const auto window = Clock::now();
  while (rounds < kSessions || seconds_since(window) < seconds) {
    client->round(seed, rounds++, log, &report);
    for (std::size_t i = physics_s.size(); i < log.checks.size(); ++i) {
      double phys = 0.0;
      if (!served_output_ok(log.checks[i].first, log.checks[i].second, &phys)) {
        std::cout << "oracle: a served write differs from in-process run_flow(FlowRequest)\n";
        report.late_failure();
      }
      physics_s.push_back(phys);
    }
  }
  const auto& checks = log.checks;
  if (checks.empty()) return report.finish();  // every write failed; counted above
  if (served_output_ok(checks.front().first, checks.front().second, nullptr,
                       /*invert=*/true)) {
    report.invalid("oracle self-test: a PO-inverted session netlist matched");
  } else {
    std::cout << "selftest: the ECO bit-identity oracle counted the PO-inverted netlist "
                 "as a failure\n";
  }

  auto& tiers = log.tier_ms;
  std::cout << "tiers: cold " << tiers[FlowTier::Cold].size() << " (p50 "
            << median(tiers[FlowTier::Cold]) << " ms), eco " << tiers[FlowTier::Eco].size()
            << " (p50 " << median(tiers[FlowTier::Eco]) << " ms), warm "
            << tiers[FlowTier::Warm].size() << " (p50 " << median(tiers[FlowTier::Warm])
            << " ms); " << log.eco_writes << "/" << log.writes << " writes served as ECO, "
            << checks.size() << " oracle re-runs\n";

  if (!report.trace()) {
    // Quality of every circuit the service synthesised from scratch: the
    // primed pool and each session's first write.
    std::vector<FlowMetrics> served = client->pool_metrics();
    served.insert(served.end(), log.first_writes.begin(), log.first_writes.end());
    uint64_t area = 0, dffs = 0, depth = 0;
    for (const FlowMetrics& m : served) {
      area += m.area_jj;
      dffs += m.num_dffs;
      depth += static_cast<uint64_t>(m.depth_cycles);
    }
    report.set("setup_s", median(setup_s), setup_s.size());
    report.set("flow_s", median(log.round_ms) * 1e-3, rounds);
    report.set("physics_s", median(physics_s), physics_s.size());
    report.set("req_per_s", static_cast<double>(log.requests) / (log.client_ms * 1e-3),
               log.requests);
    report.set("peak_rss_mb", peak_rss_mb(), 1);
    report.set("area_jj", static_cast<double>(area), served.size());
    report.set("dffs", static_cast<double>(dffs), served.size());
    report.set("depth_cycles", static_cast<double>(depth), served.size());
    return report.finish();
  }

  // Tier latencies come from the untraced loop, with their sample counts.
  const auto tier_metric = [&](const char* name, FlowTier t, double q) {
    report.set(name, quantile(tiers[t], q), tiers[t].size());
    std::cout << name << " rests on " << tiers[t].size() << " samples\n";
  };
  tier_metric("service.cold_p50_ms", FlowTier::Cold, 0.5);
  tier_metric("service.cold_p90_ms", FlowTier::Cold, 0.9);
  tier_metric("service.eco_p50_ms", FlowTier::Eco, 0.5);
  tier_metric("service.warm_p50_ms", FlowTier::Warm, 0.5);
  tier_metric("service.warm_p90_ms", FlowTier::Warm, 0.9);

  // Traced pass: a fresh server, primed the same way, replays the same rounds.
  ServiceClient traced_client(pool, session_nets, /*observe=*/true);
  begin_recording();
  ServiceLog tlog;
  for (std::size_t r = 0; r < rounds; ++r) traced_client.round(seed, r, tlog, nullptr);
  report_layers(report, rounds, tlog.stages, tlog.client_ms * 1e-3, trace_file);
  const auto overhead = [&](const char* name, FlowTier t) {
    const std::size_t n = tlog.tier_ms[t].size();
    report.set(name, n ? tlog.overhead_ms[t] / static_cast<double>(n) : 0.0, n);
  };
  overhead("service.overhead.cold_ms", FlowTier::Cold);
  overhead("service.overhead.eco_ms", FlowTier::Eco);
  overhead("service.overhead.warm_ms", FlowTier::Warm);
  report.set("service.codec.time_ms", tlog.codec_ms / static_cast<double>(tlog.requests),
             tlog.requests);
  report.set("service.warm_hit_rate",
             static_cast<double>(tlog.warm_reads) / static_cast<double>(tlog.reads),
             tlog.reads);
  report.set("service.eco_hit_rate",
             static_cast<double>(tlog.eco_writes) / static_cast<double>(tlog.writes),
             tlog.writes);
  const obs::Registry& reg = obs::Registry::instance();
  for (const char* reason : {"t1_region", "absorbed"}) {
    const std::string name = std::string("service.eco.fallback.") + reason;
    report.set(name,
               static_cast<double>(reg.counter(name)) / static_cast<double>(tlog.writes),
               tlog.writes);
  }
  report.set("cost.rewrite_db.time_s", db_s, 1);
  report.set("trace.overhead", tlog.client_ms / log.client_ms, rounds);
  // Named times: flow stages of cold/eco serves, the client codec, and the
  // whole handle time of warm serves (the warm tier runs no flow). The rest
  // is cold/eco service overhead: BLIF parse, keying, netdiff, sessions.
  const double named_ms =
      stage_ms(tlog.stages) + tlog.codec_ms + tlog.overhead_ms[FlowTier::Warm];
  report.set("trace.coverage", named_ms / tlog.client_ms, rounds);
  return report.finish();
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  unsigned trace = 0;
  std::string trace_file;
  bench::ArgParser args("t1bench");
  args.string_opt("--workload", &workload, "name", "rand-default | table1-paper | service-eco")
      .u64_opt("--seed", &seed, "N", "workload seed")
      .double_opt("--seconds", &seconds, "S", "measurement window")
      .uint_opt("--trace", &trace, "0|1", "1: per-layer metrics from a traced replay")
      .string_opt("--trace-file", &trace_file, "path", "Chrome trace output (--trace 1)");
  if (!args.parse(argc, argv)) return 2;
  if (trace > 1 || !(seconds > 0.0)) {
    std::cerr << "t1bench: --trace takes 0 or 1 and --seconds must be positive\n";
    return 2;
  }

  // Hermetic set-up: the rewrite database must be built here, not loaded.
  const char* dir = std::getenv("T1SFQ_CACHE_DIR");
  if (dir == nullptr || *dir == '\0' ||
      std::filesystem::exists(cache_directory() + "/" +
                              RewriteDb::cache_file_name(RewriteDb::Params{}))) {
    std::cerr << "t1bench: T1SFQ_CACHE_DIR must name an empty private directory\n";
    return 2;
  }

  std::cout << "t1bench workload=" << workload << " seed=" << seed << " seconds=" << seconds
            << " trace=" << trace << "\n";
  Report report(trace == 1);
  try {
    if (workload == "rand-default") return run_rand_default(seed, seconds, report, trace_file);
    if (workload == "table1-paper") return run_table1_paper(seed, seconds, report, trace_file);
    if (workload == "service-eco") return run_service_eco(seed, seconds, report, trace_file);
  } catch (const std::exception& e) {
    std::cerr << "t1bench: " << e.what() << "\n";
    return 1;
  }
  std::cerr << "t1bench: unknown workload '" << workload << "'\n";
  return 2;
}
