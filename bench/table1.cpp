/// \file table1.cpp
/// \brief Regenerates Table I of the paper: multiphase clocking with T1 cells
/// on the arithmetic EPFL/ISCAS benchmark subset.
///
/// For every benchmark the three flows run on the same generated network:
///   1φ   — single-phase clocking, no T1 cells (conventional path balancing),
///   nφ   — n-phase clocking (default 4), no T1 cells (ASP-DAC'24 baseline),
///   T1   — n-phase clocking with T1 detection (the paper's contribution),
/// and the table reports #path-balancing DFFs, area (JJ) and depth (cycles)
/// plus the T1/1φ and T1/nφ ratio columns, the averages row and the unified
/// JJ breakdown block (logic/DFF/splitter/clock per flow stage).
///
/// The (benchmark × flow) pairs run on a thread pool (benchmarks/runner.hpp):
/// every job regenerates its own network and flows are pure, so the output is
/// deterministic and byte-identical to a sequential run (--jobs 1).
///
/// Every T1 flow result is verified: SAT equivalence against the generator
/// and a pulse-level simulation of the physical netlist (timing + function).
///
/// Usage: table1 [--phases N] [--shrink K] [--no-verify] [--sat-budget C]
///               [--opt] [--physics] [--jobs N] [--json <path>] [--db <path>]
///   --shrink K scales all benchmark widths down by K for quick runs.
///   --physics runs the pulse-level physics oracle (verify/physics_check.hpp)
///   on every flow result and adds physics_* fields to the emitted records;
///   an oracle failure fails the run with the report's witness vector.
///   --sat-budget C caps each SAT call of the proof at C conflicts (default
///   5000; simulation and pulse-level checks always run in full).
///   --opt runs all three flows behind the pre-mapping optimizer (src/opt/).
///   The default reproduces the paper (no optimization); see
///   bench/opt_ablation.cpp for the per-pass effect of the optimizer.
///   --jobs N sizes the thread pool (default: hardware concurrency).
///   --json <path> writes one record per (benchmark, flow) with quality
///   metrics and per-stage wall times; gated in CI against the committed
///   result history (bench_history.jsonl) via `dbtool gate`.
///   --db <path> appends the same records to the append-only result DB,
///   stamped with commit/branch/build/host (see src/obs/resultdb.hpp).
///   (Per-record obs counters are not captured here: jobs run concurrently
///   and the registry is process-wide.)

#include <atomic>
#include <chrono>
#include <cstring>
#include <iostream>
#include <string>

#include "benchmarks/argparse.hpp"
#include "benchmarks/record.hpp"
#include "benchmarks/runner.hpp"
#include "benchmarks/suite.hpp"
#include "core/flow.hpp"
#include "core/report.hpp"
#include "network/equivalence.hpp"
#include "network/simulation.hpp"
#include "sfq/pulse_sim.hpp"
#include "verify/physics_check.hpp"

using namespace t1sfq;

int main(int argc, char** argv) {
  unsigned phases = 4;
  unsigned shrink = 1;
  unsigned jobs = 0;
  bool verify = true;
  bool opt = false;
  bool physics = false;
  uint64_t sat_budget = 5000;
  std::string json_path;
  std::string db_path;
  bool no_verify = false;
  bench::ArgParser args("bench_table1");
  args.uint_opt("--phases", &phases, "N", "clock phases")
      .uint_opt("--shrink", &shrink, "K", "shrink benchmark widths by K")
      .u64_opt("--sat-budget", &sat_budget, "C", "SAT conflict budget for verification")
      .uint_opt("--jobs", &jobs, "N", "parallel rows (0 = hardware)")
      .flag("--no-verify", &no_verify, "skip SAT/pulse verification")
      .flag("--opt", &opt, "enable pre-mapping optimization")
      .flag("--physics", &physics, "run the pulse-level oracle per flow")
      .string_opt("--json", &json_path, "path", "write records as JSON")
      .string_opt("--db", &db_path, "path", "append records to result DB");
  if (!args.parse(argc, argv)) return 2;
  if (phases < kMinT1Phases) {
    // Every row runs a T1 flow, and run_flow would throw inside a worker job.
    std::cerr << "bench_table1: --phases " << phases << ": T1 cells need >= " << kMinT1Phases
              << " clock phases (three distinct landing slots)\n";
    return 2;
  }
  verify = !no_verify;

  const auto suite = shrink > 1 ? bench::make_suite_scaled(shrink) : bench::make_suite();
  std::vector<TableRow> rows(suite.size());
  // One pre-sized slot per (benchmark, flow): jobs fill their own index, so
  // the emitted record order is deterministic regardless of pool scheduling.
  std::vector<bench::BenchRecord> records(suite.size() * 3);
  std::atomic<bool> all_ok{true};

  // One job per (benchmark, flow): the T1 job also carries the verification.
  std::vector<bench::Job> pairs;
  for (std::size_t b = 0; b < suite.size(); ++b) {
    rows[b].name = suite[b].name;
    for (int flow = 0; flow < 3; ++flow) {
      pairs.push_back([&, b, flow](std::ostream& log) {
        const auto& c = suite[b];
        const Network net = c.generate();
        FlowParams p;
        p.clk.phases = flow == 0 ? 1 : phases;
        p.use_t1 = flow == 2;
        p.opt.enable = opt;
        if (flow == 0) {
          log << "[table1] " << c.name << ": " << net.num_gates()
              << " gates, depth " << net.depth() << "\n";
        }
        const FlowResult res = run_flow(net, p);
        FlowMetrics& slot = flow == 0   ? rows[b].single_phase
                            : flow == 1 ? rows[b].multi_phase
                                        : rows[b].t1;
        slot = res.metrics;

        bench::BenchRecord& rec = records[b * 3 + static_cast<std::size_t>(flow)];
        const std::string flow_name =
            flow == 0 ? "1phi" : flow == 1 ? std::to_string(phases) + "phi" : "t1";
        rec.circuit = c.name;
        rec.config = flow_name + " shrink=" + std::to_string(shrink) +
                     (opt ? " opt=on" : " opt=off");
        rec.metrics = {{"gates", static_cast<int64_t>(res.metrics.num_gates)},
                       {"dffs", static_cast<int64_t>(res.metrics.num_dffs)},
                       {"splitters", static_cast<int64_t>(res.metrics.num_splitters)},
                       {"area_jj", static_cast<int64_t>(res.metrics.area_jj)},
                       {"depth_cycles", static_cast<int64_t>(res.metrics.depth_cycles)},
                       {"t1_used", static_cast<int64_t>(res.metrics.t1_used)}};
        rec.time_ms = {{"cleanup", res.timings.cleanup_ms},
                       {"opt", res.timings.opt_ms},
                       {"detect", res.timings.detect_ms},
                       {"assign", res.timings.assign_ms},
                       {"insert", res.timings.insert_ms},
                       {"total", res.timings.total_ms}};

        if (physics) {
          // Run the oracle outside run_flow so a failure still emits the
          // record (with physics_ok = 0) before failing the bench.
          const auto t0 = std::chrono::steady_clock::now();
          const auto report = t1sfq::verify::physics_check(res.physical, p.clk, net);
          const double ms =
              std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                        t0)
                  .count();
          rec.metrics.push_back({"physics_ok", report.ok ? 1 : 0});
          rec.metrics.push_back({"physics_vectors", static_cast<int64_t>(report.vectors)});
          rec.metrics.push_back(
              {"physics_violations", static_cast<int64_t>(report.timing_violations +
                                                          report.function_mismatches)});
          rec.metrics.push_back({"physics_min_margin", report.min_margin});
          rec.time_ms.push_back({"physics", ms});
          if (!report.ok) {
            log << "[table1] PHYSICS ORACLE FAILED for " << c.name << " (" << flow_name
                << "): " << report.summary() << "\n";
            all_ok = false;
          } else {
            log << "[table1] " << c.name << " (" << flow_name << ") physics oracle: "
                << report.vectors << " vectors, min margin " << report.min_margin
                << "\n";
          }
        }

        if (flow == 2 && verify) {
          // Random word-parallel simulation (2048 vectors) is the falsifier;
          // the SAT proof gets a conflict budget because miters over
          // multiplier-class circuits are exponentially hard for CDCL — a
          // budget-out counts as "verified by simulation", a counterexample
          // fails the run.
          const bool sim_ok = random_simulation_equal(res.mapped, net, 32);
          const bool pulse_ok =
              pulse_verify(res.physical.net, res.physical.stage, p.clk, net, 1);
          const auto sat = check_equivalence_sat(res.mapped, net, sat_budget);
          const bool sat_refuted = sat.result == EquivalenceResult::NotEquivalent;
          if (!sim_ok || !pulse_ok || sat_refuted) {
            log << "[table1] VERIFICATION FAILED for " << c.name
                << " (sim=" << sim_ok << ", pulse=" << pulse_ok
                << ", sat refuted=" << sat_refuted << ")\n";
            all_ok = false;
          } else {
            log << "[table1] " << c.name << " verified ("
                << (sat.result == EquivalenceResult::Equivalent ? "SAT-proved"
                                                                : "simulation")
                << " + pulse-level)\n";
          }
        }
      });
    }
  }
  bench::run_jobs(std::move(pairs), std::cerr, jobs);

  print_table(std::cout, rows, phases);

  const TableSummary s = summarize(rows);
  std::cout << "\nHeadline claims (paper §III: avg area -6% vs " << phases
            << "phi, adder -25%, depth +13%):\n";
  std::cout << "  average T1 area   vs " << phases << "phi: " << (s.area_ratio_vs_nphi - 1) * 100
            << "%\n";
  std::cout << "  average T1 #DFF   vs " << phases << "phi: " << (s.dff_ratio_vs_nphi - 1) * 100
            << "%\n";
  std::cout << "  average T1 depth  vs " << phases << "phi: "
            << (s.depth_ratio_vs_nphi - 1) * 100 << "%\n";
  std::cout << "  suite-total T1 area vs " << phases
            << "phi: " << (s.total_area_ratio_vs_nphi - 1) * 100 << "%\n";
  std::cout << "  suite-total T1 #DFF vs " << phases
            << "phi: " << (s.total_dff_ratio_vs_nphi - 1) * 100 << "%\n";
  const auto& adder = rows.front();
  std::cout << "  adder   T1 area   vs " << phases << "phi: "
            << (static_cast<double>(adder.t1.area_jj) / adder.multi_phase.area_jj - 1) * 100
            << "%\n";
  if (!bench::emit_records(json_path, db_path, "table1", records)) {
    return 1;
  }
  return all_ok ? 0 : 1;
}
