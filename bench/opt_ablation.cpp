/// \file opt_ablation.cpp
/// \brief Optimization-ablation benchmark: each opt pass toggled on the suite.
///
/// Runs the T1 flow on every Table-I benchmark with the pre-mapping optimizer
/// in five configurations — off, each pass alone, and the full pipeline — and
/// reports the logical gate count entering/leaving the optimizer plus the
/// Table-I columns (#DFF, area in JJ with its logic/DFF/splitter/clock
/// breakdown, depth in cycles, T1 cells used). Every optimized network is
/// verified against the generator: word-parallel random simulation in full,
/// and a SAT equivalence proof under a conflict budget (a counterexample
/// fails the run; exceeding the budget reports "sim").
///
/// The (benchmark × configuration) pairs run on a thread pool
/// (benchmarks/runner.hpp) with deterministic, ordered output; --jobs 1
/// reproduces the sequential run byte for byte.
///
/// This is the acceptance harness for the optimizer: the "all" rows must
/// never exceed the "off" rows in #DFF or depth, and must show strictly
/// fewer gates on the adder/multiplier-class benchmarks.
///
/// Usage: opt_ablation [--phases N] [--shrink K] [--no-verify]
///                     [--sat-budget C] [--jobs N] [--json <path>] [--db <path>]
///   --json <path> writes one record per (benchmark, variant) with quality
///   metrics and per-stage wall times (src/benchmarks/record.hpp schema).

#include <atomic>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "benchmarks/argparse.hpp"
#include "benchmarks/record.hpp"
#include "benchmarks/runner.hpp"
#include "benchmarks/suite.hpp"
#include "core/flow.hpp"
#include "network/equivalence.hpp"
#include "network/simulation.hpp"

using namespace t1sfq;

namespace {

struct Variant {
  const char* name;
  bool enable, rewriting, balancing, resub;
};

constexpr Variant kVariants[] = {
    {"off", false, false, false, false},
    {"rw", true, true, false, false},
    {"bal", true, false, true, false},
    {"rs", true, false, false, true},
    {"all", true, true, true, true},
};
constexpr std::size_t kNumVariants = sizeof(kVariants) / sizeof(kVariants[0]);

}  // namespace

int main(int argc, char** argv) {
  unsigned phases = 4;
  unsigned shrink = 4;
  unsigned jobs = 0;
  bool verify = true;
  uint64_t sat_budget = 5000;
  std::string json_path;
  std::string db_path;
  bool no_verify = false;
  bench::ArgParser args("bench_opt_ablation");
  args.uint_opt("--phases", &phases, "N", "clock phases")
      .uint_opt("--shrink", &shrink, "K", "shrink benchmark widths by K")
      .u64_opt("--sat-budget", &sat_budget, "C", "SAT conflict budget for verification")
      .uint_opt("--jobs", &jobs, "N", "parallel rows (0 = hardware)")
      .flag("--no-verify", &no_verify, "skip SAT equivalence checks")
      .string_opt("--json", &json_path, "path", "write records as JSON")
      .string_opt("--db", &db_path, "path", "append records to result DB");
  if (!args.parse(argc, argv)) return 2;
  if (phases < kMinT1Phases) {
    // Every row runs a T1 flow, and run_flow would throw inside a worker job.
    std::cerr << "bench_opt_ablation: --phases " << phases << ": T1 cells need >= " << kMinT1Phases
              << " clock phases (three distinct landing slots)\n";
    return 2;
  }
  verify = !no_verify;

  const auto suite = shrink > 1 ? bench::make_suite_scaled(shrink) : bench::make_suite();
  std::atomic<bool> all_ok{true};
  std::vector<FlowMetrics> metrics(suite.size() * kNumVariants);
  // Pre-sized per (benchmark, variant): jobs fill their own slot, so the
  // emitted record order is deterministic regardless of pool scheduling.
  std::vector<bench::BenchRecord> records(suite.size() * kNumVariants);

  std::cout << std::left << std::setw(12) << "benchmark" << std::setw(6) << "cfg"
            << std::right << std::setw(7) << "G.in" << std::setw(7) << "G.opt"
            << std::setw(7) << "#DFF" << std::setw(9) << "Area" << std::setw(22)
            << "log/dff/spl/clk" << std::setw(7) << "Depth" << std::setw(6) << "T1"
            << std::setw(9) << "proof" << "\n";

  std::vector<bench::Job> pairs;
  for (std::size_t b = 0; b < suite.size(); ++b) {
    for (std::size_t v = 0; v < kNumVariants; ++v) {
      pairs.push_back([&, b, v](std::ostream& log) {
        const auto& c = suite[b];
        const Variant& var = kVariants[v];
        const Network net = c.generate();
        FlowParams p;
        p.clk.phases = phases;
        p.opt.enable = var.enable;
        p.opt.cut_rewriting = var.rewriting;
        p.opt.balancing = var.balancing;
        p.opt.resubstitution = var.resub;
        const FlowResult res = run_flow(net, p);
        metrics[b * kNumVariants + v] = res.metrics;

        bench::BenchRecord& rec = records[b * kNumVariants + v];
        rec.circuit = c.name;
        rec.config = std::string("opt=") + var.name + " shrink=" +
                     std::to_string(shrink) + " phases=" + std::to_string(phases);
        rec.metrics = {{"pre_opt_gates", static_cast<int64_t>(res.metrics.pre_opt_gates)},
                       {"opt_gates", static_cast<int64_t>(res.metrics.opt_gates)},
                       {"dffs", static_cast<int64_t>(res.metrics.num_dffs)},
                       {"area_jj", static_cast<int64_t>(res.metrics.area_jj)},
                       {"depth_cycles", static_cast<int64_t>(res.metrics.depth_cycles)},
                       {"t1_used", static_cast<int64_t>(res.metrics.t1_used)}};
        rec.time_ms = {{"opt", res.timings.opt_ms},
                       {"detect", res.timings.detect_ms},
                       {"assign", res.timings.assign_ms},
                       {"total", res.timings.total_ms}};

        std::string proof = "-";
        if (verify && var.enable) {
          if (!random_simulation_equal(res.mapped, net, 32)) {
            proof = "SIM-FAIL";
            all_ok = false;
          } else {
            const auto sat = check_equivalence_sat(res.mapped, net, sat_budget);
            if (sat.result == EquivalenceResult::NotEquivalent) {
              proof = "SAT-FAIL";
              all_ok = false;
            } else {
              proof = sat.result == EquivalenceResult::Equivalent ? "SAT" : "sim";
            }
          }
        }

        const JJBreakdown& bd = res.metrics.breakdown;
        std::ostringstream split;
        split << bd.logic << "/" << bd.dff << "/" << bd.splitter << "/" << bd.clock;
        log << std::left << std::setw(12) << c.name << std::setw(6) << var.name
            << std::right << std::setw(7) << res.metrics.pre_opt_gates << std::setw(7)
            << res.metrics.opt_gates << std::setw(7) << res.metrics.num_dffs
            << std::setw(9) << res.metrics.area_jj << std::setw(22) << split.str()
            << std::setw(7) << res.metrics.depth_cycles << std::setw(6)
            << res.metrics.t1_used << std::setw(9) << proof << "\n";
      });
    }
  }
  bench::run_jobs(std::move(pairs), std::cout, jobs);

  for (std::size_t b = 0; b < suite.size(); ++b) {
    const FlowMetrics& off = metrics[b * kNumVariants + 0];
    const FlowMetrics& all = metrics[b * kNumVariants + (kNumVariants - 1)];
    if (all.num_dffs > off.num_dffs || all.depth_cycles > off.depth_cycles) {
      std::cerr << "[opt_ablation] REGRESSION on " << suite[b].name << ": DFF "
                << off.num_dffs << " -> " << all.num_dffs << ", depth "
                << off.depth_cycles << " -> " << all.depth_cycles << "\n";
      all_ok = false;
    }
    if (all.opt_gates >= off.opt_gates) {
      std::cerr << "[opt_ablation] note: no gate win on " << suite[b].name << " ("
                << off.opt_gates << " -> " << all.opt_gates << ")\n";
    }
  }
  if (!bench::emit_records(json_path, db_path, "opt_ablation", records)) {
    return 1;
  }
  return all_ok ? 0 : 1;
}
