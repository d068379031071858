/// \file scaling.cpp
/// \brief Measures how the incremental analysis layer (src/incr/) scales
/// instead of asserting it.
///
/// For random and arithmetic networks from 1k to 50k gates, the optimization
/// pipeline (cut rewriting -> balancing -> resubstitution, one round) and T1
/// detection (one round) run on each input, and the table reports wall time
/// per stage. Opt and detection each have one engine, so their times are
/// absolute; the full-recompute opt reference is pinned against the default
/// by tests/opt_property_test.cpp.
///
/// Phase assignment is raced on the post-detection network of each point:
/// the incremental scheduler (`PhaseAssignmentParams::incremental`) against
/// the full-sweep coordinate descent, both on one view built outside the
/// timed regions, with the resulting schedules asserted bit-identical
/// (stages, sink, DFF estimate) — the incremental engine is an
/// evaluation-skipping optimization, never an approximation.
///
/// The random family carries planted shareable cones (full-adder-shaped
/// groups meeting the 2-cuts-per-group floor, chained like ripple carries),
/// so T1 detection genuinely converts on it — asserted, so a detection
/// regression cannot hide behind a convert-nothing family.
///
/// A second mode races the partition-parallel optimization engine
/// (src/part/, `OptParams::partition_jobs`) against the sequential pipeline
/// on the same inputs: the opt stage is timed both ways, the partitioned
/// result is SAT-checked equivalent against the sequential one (two-tier,
/// bounded budget — only a proven NotEquivalent fails), and the proofs of
/// every changed shard must report zero rejections.
///
/// Usage: scaling [--points g1,g2,...] [--smoke]
///                [--json <path>] [--db <path>] [--part] [--part-jobs N]
///                [--part-smoke] [--physics] [--physics-smoke]
///   --points            gate counts to sweep (default 1000,5000,10000,20000,50000;
///                       with --part: 20000,50000,200000)
///   --smoke             CI mode: only the 10k-gate pair (plus a 10k
///                       partition-race record on the random family). The
///                       identity and convert-something assertions still
///                       hard-fail; the scheduler speedup trajectory is gated
///                       by CI against the committed result history
///                       (bench_history.jsonl, rolling median) via
///                       `dbtool gate`.
///   --json <path>       write one machine-readable record per circuit
///                       (metrics, per-stage wall times, speedup ratios, obs
///                       counters); also enables the obs registry/spans.
///   --db <path>         append the same records to the append-only result DB,
///                       stamped with commit/branch/build/host (also enables
///                       the obs registry; see src/obs/resultdb.hpp).
///   --part              partition-parallel sweep only (random family, up to
///                       the 200k-gate point by default)
///   --part-jobs N       worker threads for the partitioned engine (default 8)
///   --part-smoke        CI gate: one 100k-gate point with 4 jobs; exits 1
///                       unless the partitioned opt stage is >= 1.5x the
///                       sequential one (and equivalent). Run on a multi-core
///                       machine — a single hardware thread cannot pass.
///   --physics           additionally runs a default-knob flow + the
///                       pulse-level physics oracle (verify/physics_check.hpp)
///                       on each random-family point and emits a separate
///                       record with physics_* metrics; an oracle failure
///                       fails the run.
///   --physics-smoke     CI gate: one 10k-gate random flow (opt 1 round,
///                       T1 on) through run_flow with the embedded oracle;
///                       exits 1 on any oracle failure.

#include <chrono>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "benchmarks/argparse.hpp"
#include "benchmarks/arith.hpp"
#include "benchmarks/random_net.hpp"
#include "benchmarks/record.hpp"
#include "core/flow.hpp"
#include "core/phase_assignment.hpp"
#include "core/t1_detection.hpp"
#include "cost/cost_model.hpp"
#include "incr/incremental_view.hpp"
#include "network/equivalence.hpp"
#include "network/network.hpp"
#include "obs/metrics.hpp"
#include "opt/pass.hpp"
#include "part/shard_runner.hpp"

using namespace t1sfq;

namespace {

/// Random DAG (shared generator, benchmarks/random_net.hpp) with every sink
/// driven out as a PO, so the whole graph survives the sweep in run_once().
/// One shareable (full-adder-shaped, carry-chained) cone is planted per ~24
/// gates so T1 detection genuinely converts on this family.
Network random_case(uint64_t seed, unsigned num_pis, unsigned num_gates) {
  Network net = bench::random_network(seed, num_pis, num_gates,
                                      bench::RandomPoPolicy::AllSinks,
                                      /*plant_cone_every=*/24);
  net.set_name("rand" + std::to_string(num_gates));
  return net;
}

Network adder_network(unsigned gates) {
  const unsigned bits = std::max(2u, gates / 5);  // ~5 cells per full adder
  Network net("adder" + std::to_string(bits));
  const Word a = add_pi_word(net, bits, "a");
  const Word b = add_pi_word(net, bits, "b");
  add_po_word(net, ripple_carry_adder(net, a, b, net.get_const0()), "s");
  return net;
}

/// Config-label fragment naming the optimizer knobs that ran.
std::string opt_label(const OptParams& op) {
  if (!op.enable) return "opt=off";
  return "opt=" + std::to_string(op.rounds) + (op.rounds == 1 ? "round" : "rounds") +
         (op.verify ? " verify=on" : " verify=off");
}

/// Optimizer setting of the sweep: one pipeline round keeps it time-bounded,
/// and the pass-level SAT miter (the opt.verify layer) stays off.
OptParams sweep_opt() {
  OptParams op;
  op.verify = false;
  op.rounds = 1;
  return op;
}

struct StageTimes {
  double opt_ms = 0;
  double det_ms = 0;
  std::size_t gates = 0;
  uint32_t depth = 0;
  std::size_t t1_used = 0;
  uint64_t estimate_jj = 0;
};

/// Phase-assignment race on one (post-detection) network: the incremental
/// scheduler vs the full sweep, schedules asserted bit-identical.
struct PaRace {
  double inc_ms = 0;
  double leg_ms = 0;
  bool identical = true;
  double speedup() const { return leg_ms / std::max(inc_ms, 0.1); }
};

PaRace race_assignment(const Network& net) {
  using clock = std::chrono::steady_clock;
  PhaseAssignmentParams pp;
  // Both engines schedule one view, built outside the timed regions: the
  // race times the schedulers, not the network copy and view build.
  Network scheduled = net;
  const IncrementalView view(scheduled, CostModel{});

  // Untimed warm-up so the first timed engine does not also pay the
  // first-touch cost of the post-detection network (which would bias the
  // speedup the CI gate reads).
  pp.incremental = true;
  assign_phases(view, pp);

  pp.incremental = false;
  auto t0 = clock::now();
  const PhaseAssignment legacy = assign_phases(view, pp);
  auto t1 = clock::now();

  pp.incremental = true;
  const PhaseAssignment incr = assign_phases(view, pp);
  auto t2 = clock::now();

  PaRace r;
  r.leg_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.inc_ms = std::chrono::duration<double, std::milli>(t2 - t1).count();
  r.identical = incr.stage == legacy.stage &&
                incr.output_stage == legacy.output_stage &&
                incr.estimated_dffs == legacy.estimated_dffs;
  return r;
}

/// Opt and detection on \p input; the post-detection network lands in
/// \p final_net for the scheduler race.
StageTimes run_once(const Network& input, Network& final_net) {
  using clock = std::chrono::steady_clock;
  const CostModel model(CellLibrary{}, AreaConfig{}, MultiphaseConfig{4});
  // Sweep PO-unreachable generator junk: the detection guard prices the
  // live set, and the sweep keeps junk out of it.
  Network net = input;
  net.sweep_dangling();
  net = net.cleanup();

  auto t0 = clock::now();
  optimize(net, model, sweep_opt());
  auto t1 = clock::now();

  // The plain ASAP guard, one round: the schedule-aware rescue's
  // counterfactual probe would run a second detection inside the timing.
  T1DetectionParams det;
  det.max_rounds = 1;
  det.schedule_aware_guard = false;
  const auto stats = detect_and_replace_t1(net, model, det);
  auto t2 = clock::now();

  StageTimes r;
  r.opt_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.det_ms = std::chrono::duration<double, std::milli>(t2 - t1).count();
  r.gates = net.num_gates();
  r.depth = net.depth();
  r.t1_used = stats.used;
  r.estimate_jj = model.network_breakdown(net).total();
  final_net = std::move(net);
  return r;
}

/// One partition-parallel race: sequential vs sharded opt stage on the same
/// swept input, partitioned result SAT-checked against the sequential one.
struct PartRace {
  double seq_ms = 0;
  double part_ms = 0;
  std::size_t gates_in = 0;
  std::size_t gates_out = 0;
  uint32_t depth = 0;
  part::PartitionOptStats stats;
  EquivalenceResult equiv = EquivalenceResult::Unknown;
  double speedup() const { return seq_ms / std::max(part_ms, 0.1); }
};

PartRace race_partition(const Network& input, unsigned jobs,
                        uint64_t sat_budget) {
  using clock = std::chrono::steady_clock;
  Network base = input;
  base.sweep_dangling();
  base = base.cleanup();

  OptParams op;
  op.verify = false;
  op.rounds = 1;

  Network seq = base;
  const auto t0 = clock::now();
  optimize(seq, CostModel{}, op);
  const auto t1 = clock::now();

  OptParams pop = op;
  pop.partition_jobs = jobs;
  Network par = base;
  PartRace r;
  const auto t2 = clock::now();
  part::optimize_partitioned(par, CostModel{}, pop, &r.stats);
  const auto t3 = clock::now();

  r.seq_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.part_ms = std::chrono::duration<double, std::milli>(t3 - t2).count();
  r.gates_in = base.num_gates();
  r.gates_out = par.num_gates();
  r.depth = par.depth();
  // Two-tier full-output check with a bounded per-SAT-call budget: a proven
  // NotEquivalent hard-fails the run; a budget-capped Unknown is reported
  // but passes (every changed shard was already proved against its input).
  r.equiv = check_equivalence(par, seq, /*sim_rounds=*/8, sat_budget).result;
  return r;
}

/// The partition sweep / CI smoke gate. Returns the process exit code.
int run_partition_mode(const std::vector<unsigned>& points, unsigned jobs,
                       double min_speedup, const std::string& json_path,
                       const std::string& db_path) {
  const bool emit = !json_path.empty() || !db_path.empty();
  std::cout << "Partition-parallel opt (src/part/, " << jobs
            << " jobs vs sequential, 1 round)\n";
  std::cout << std::setw(14) << "circuit" << std::setw(9) << "gates" << std::setw(11)
            << "opt(seq)" << std::setw(11) << "opt(part)" << std::setw(9) << "speedup"
            << std::setw(9) << "regions" << std::setw(9) << "repl" << std::setw(9)
            << "skip" << std::setw(9) << "satchk" << std::setw(13) << "equiv" << "\n";

  std::vector<bench::BenchRecord> records;
  bool ok = true;
  for (const unsigned n : points) {
    obs::Registry::instance().reset();
    const Network net = random_case(0xbada55 + n, std::max(8u, n / 16), n);
    const PartRace r = race_partition(net, jobs, /*sat_budget=*/20000);

    const char* equiv = r.equiv == EquivalenceResult::Equivalent ? "proved"
                        : r.equiv == EquivalenceResult::Unknown ? "unknown"
                                                                : "FAIL";
    std::cout << std::setw(14) << net.name() << std::setw(9) << r.gates_in
              << std::setw(11) << std::fixed << std::setprecision(1) << r.seq_ms
              << std::setw(11) << r.part_ms << std::setw(8) << r.speedup() << "x"
              << std::setw(9) << r.stats.regions << std::setw(9)
              << r.stats.replaced_roots + r.stats.stitch_replaced_roots
              << std::setw(9) << r.stats.guard_skipped_roots << std::setw(9)
              << r.stats.sat_checked_shards << std::setw(13) << equiv << "\n";

    if (r.equiv == EquivalenceResult::NotEquivalent) {
      std::cout << "FAIL: partitioned result differs from sequential on "
                << net.name() << "\n";
      ok = false;
    }
    if (r.stats.sat_rejected_shards != 0) {
      std::cout << "FAIL: " << r.stats.sat_rejected_shards
                << " shard(s) failed their SAT check on " << net.name()
                << "\n";
      ok = false;
    }
    if (min_speedup > 0 && r.speedup() < min_speedup) {
      std::cout << "FAIL: partitioned opt speedup " << std::setprecision(2)
                << r.speedup() << "x < required " << min_speedup << "x on "
                << net.name() << " (" << jobs << " jobs)\n";
      ok = false;
    }

    if (emit) {
      bench::BenchRecord rec;
      rec.circuit = net.name();
      rec.config = "part jobs=" + std::to_string(jobs) + " opt=1round";
      rec.metrics = {{"gates", static_cast<int64_t>(r.gates_out)},
                     {"depth", static_cast<int64_t>(r.depth)},
                     {"regions", static_cast<int64_t>(r.stats.regions)}};
      rec.time_ms = {{"opt_seq", r.seq_ms}, {"opt_part", r.part_ms}};
      bench::capture_counters(rec);
      records.push_back(std::move(rec));
    }
  }
  if (!ok) {
    return 1;
  }
  if (!bench::emit_records(json_path, db_path, "scaling", records)) {
    return 1;
  }
  return 0;
}

/// The CI physics-smoke gate: one 10k-gate random flow (opt 1 round, T1 on)
/// through run_flow with the embedded oracle. run_flow throws on an oracle
/// failure, so the gate is simply "did the flow complete".
int run_physics_smoke() {
  const Network net = random_case(0xbada55 + 10000, 10000 / 16, 10000);
  FlowParams p;
  p.use_t1 = true;
  p.opt.enable = true;
  p.opt.rounds = 1;
  p.opt.verify = false;  // the oracle itself is the end-to-end check here
  p.physics_check = true;
  try {
    const FlowResult res = run_flow(net, p);
    std::cout << "[physics-smoke] " << net.name() << ": " << res.physics.summary()
              << " (" << std::fixed << std::setprecision(1)
              << res.timings.physics_ms << " ms oracle, " << res.timings.total_ms
              << " ms flow)\n";
    return 0;
  } catch (const std::exception& e) {
    std::cout << "[physics-smoke] FAIL: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<unsigned> points{1000, 5000, 10000, 20000, 50000};
  bool smoke = false;
  bool part_mode = false;
  bool part_smoke = false;
  bool physics = false;
  bool physics_smoke = false;
  bool points_overridden = false;
  unsigned part_jobs = 8;
  std::string json_path;
  std::string db_path;
  std::vector<unsigned> points_arg;
  bench::ArgParser args("bench_scaling");
  args.uint_list("--points", &points_arg, "g1,g2,...", "gate counts to sweep")
      .flag("--smoke", &smoke, "small fixed points for CI")
      .string_opt("--json", &json_path, "path", "write records as JSON")
      .string_opt("--db", &db_path, "path", "append records to result DB")
      .flag("--part", &part_mode, "partition-parallel optimizer comparison")
      .uint_opt("--part-jobs", &part_jobs, "N", "partition worker threads")
      .flag("--part-smoke", &part_smoke, "small partition comparison for CI")
      .flag("--physics", &physics, "physics oracle on each scaling point")
      .flag("--physics-smoke", &physics_smoke, "physics oracle smoke run for CI");
  if (!args.parse(argc, argv)) return 2;
  if (!points_arg.empty()) {
    points = points_arg;
    points_overridden = true;
  }
  if (physics_smoke) {
    return run_physics_smoke();
  }
  const bool emit = !json_path.empty() || !db_path.empty();
  if (emit) {
    obs::set_enabled(true);
  }
  if (part_smoke) {
    // The CI wall-clock gate: 100k gates, 4 workers, >= 1.5x or exit 1.
    return run_partition_mode({100000}, 4, 1.5, json_path, db_path);
  }
  if (part_mode) {
    if (points_overridden == false) {
      points = {20000, 50000, 200000};
    }
    return run_partition_mode(points, part_jobs, /*min_speedup=*/0, json_path, db_path);
  }
  if (smoke) {
    points = {10000};
  }
  // Records want the obs counters (enabled above); the default stdout run
  // stays uninstrumented so the timed race measures exactly what the library
  // ships.
  std::vector<bench::BenchRecord> records;

  std::cout << "Incremental-view scaling (opt 1 round + detection 1 round + phase "
               "assignment, 4 phases)\n";
  std::cout << std::setw(14) << "circuit" << std::setw(8) << "gates" << std::setw(11)
            << "opt" << std::setw(11) << "det" << std::setw(10) << "pa(inc)"
            << std::setw(10) << "pa(leg)" << std::setw(7) << "T1" << std::setw(9)
            << "pa-spd" << "\n";

  const std::string race_config = "4phi " + opt_label(sweep_opt()) + " det=1round race=sched";
  bool ok = true;
  for (const unsigned n : points) {
    std::vector<Network> cases;
    cases.push_back(random_case(0xbada55 + n, std::max(8u, n / 16), n));
    cases.push_back(adder_network(n));
    for (const Network& net : cases) {
      // Per-circuit counters: the registry restarts empty for each record.
      obs::Registry::instance().reset();
      Network final_net;
      const StageTimes st = run_once(net, final_net);
      // The planted-cone generator exists so detection has something to
      // convert on the random family; a convert-nothing run means the
      // planting (or detection) regressed.
      if (st.t1_used == 0) {
        std::cout << "FAIL: no T1 conversion on " << net.name()
                  << " — detection no longer exercises this family.\n";
        ok = false;
      }
      // Race the schedulers on the post-detection network; identical
      // schedules are part of the incremental engine's contract.
      const PaRace pa = race_assignment(final_net);
      if (!pa.identical) {
        std::cout << "MISMATCH on " << net.name()
                  << ": incremental and full-sweep phase assignment diverge.\n";
        ok = false;
      }
      bench::BenchRecord rec;
      rec.circuit = net.name();
      rec.config = race_config;
      rec.metrics = {{"gates", static_cast<int64_t>(st.gates)},
                     {"depth", static_cast<int64_t>(st.depth)},
                     {"t1_used", static_cast<int64_t>(st.t1_used)},
                     {"estimate_jj", static_cast<int64_t>(st.estimate_jj)}};
      rec.time_ms = {{"opt", st.opt_ms},
                     {"det", st.det_ms},
                     {"pa_inc", pa.inc_ms},
                     {"pa_leg", pa.leg_ms}};
      // The PA ratio is only meaningful on the random family: its slack-rich
      // DAGs are the scheduler's real workload. The fused adder's schedule is
      // already converged at ASAP — both engines finish in ~2 ms there and
      // the ratio is timer noise, on any machine. The schedule-identity
      // assert above still runs on every circuit.
      if (net.name().rfind("rand", 0) == 0) {
        rec.ratios.push_back({"pa_speedup", pa.speedup()});
      }
      std::cout << std::setw(14) << net.name() << std::setw(8) << net.num_gates()
                << std::setw(11) << std::fixed << std::setprecision(1) << st.opt_ms
                << std::setw(11) << st.det_ms << std::setw(10) << pa.inc_ms
                << std::setw(10) << pa.leg_ms << std::setw(7) << st.t1_used
                << std::setw(8) << pa.speedup() << "x\n";
      if (emit) {
        bench::capture_counters(rec);
        records.push_back(std::move(rec));
      }

      // Sampled physics validation: a default-knob flow through the
      // pulse-level oracle on the random family, emitted as its own record
      // so the physics_* metrics enter the trajectory without touching the
      // race records. The label is derived from the knobs that ran.
      if (physics && net.name().rfind("rand", 0) == 0) {
        obs::Registry::instance().reset();
        FlowParams fp;
        fp.use_t1 = true;
        const FlowResult fres = run_flow(net, fp);
        const auto pt0 = std::chrono::steady_clock::now();
        const auto report =
            t1sfq::verify::physics_check(fres.physical, fp.clk, net);
        const double pms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - pt0)
                               .count();
        if (!report.ok) {
          std::cout << "FAIL: physics oracle on " << net.name() << ": "
                    << report.summary() << "\n";
          ok = false;
        }
        std::cout << std::setw(14) << (net.name() + ":phys") << std::setw(8)
                  << fres.physical.net.num_gates() << std::setw(11) << pms
                  << " ms (" << report.vectors << " vectors, min margin "
                  << report.min_margin << ")\n";
        if (emit) {
          bench::BenchRecord prec;
          prec.circuit = net.name();
          prec.config = "physics 4phi t1 " + opt_label(fp.opt);
          prec.metrics = {
              {"physics_ok", report.ok ? 1 : 0},
              {"physics_vectors", static_cast<int64_t>(report.vectors)},
              {"physics_violations",
               static_cast<int64_t>(report.timing_violations +
                                    report.function_mismatches)},
              {"physics_min_margin", report.min_margin},
              {"physics_checked_edges", static_cast<int64_t>(report.checked_edges)}};
          prec.time_ms = {{"physics", pms}, {"flow", fres.timings.total_ms}};
          bench::capture_counters(prec);
          records.push_back(std::move(prec));
        }
      }

      // Smoke also snapshots the partition-parallel engine on the random
      // family: gates/depth/regions are deterministic (bit-identical for any
      // job count, CI gates them exactly); the wall times ride along
      // ungated. The >= 1.5x wall-clock gate is the separate --part-smoke
      // step, which runs at 100k gates where the parallelism has room.
      if (smoke && net.name().rfind("rand", 0) == 0) {
        obs::Registry::instance().reset();
        const PartRace pr = race_partition(net, 4, /*sat_budget=*/20000);
        if (pr.equiv == EquivalenceResult::NotEquivalent ||
            pr.stats.sat_rejected_shards != 0) {
          std::cout << "FAIL: partitioned opt unsound on " << net.name() << "\n";
          ok = false;
        }
        std::cout << std::setw(14) << (net.name() + ":part") << std::setw(8)
                  << pr.gates_in << std::setw(11) << pr.part_ms << " ms ("
                  << pr.stats.regions << " regions, seq " << pr.seq_ms
                  << " ms, " << std::setprecision(1) << pr.speedup() << "x)\n";
        if (emit) {
          bench::BenchRecord prec;
          prec.circuit = net.name();
          prec.config = "part jobs=4 opt=1round";
          prec.metrics = {{"gates", static_cast<int64_t>(pr.gates_out)},
                          {"depth", static_cast<int64_t>(pr.depth)},
                          {"regions", static_cast<int64_t>(pr.stats.regions)}};
          prec.time_ms = {{"opt_seq", pr.seq_ms}, {"opt_part", pr.part_ms}};
          bench::capture_counters(prec);
          records.push_back(std::move(prec));
        }
      }
    }
  }
  if (!ok) {
    std::cout << "\nFAIL: the schedulers disagree, detection converted nothing, or "
                 "an oracle failed.\n";
    return 1;
  }
  if (!bench::emit_records(json_path, db_path, "scaling", records)) {
    return 1;
  }
  return 0;
}
