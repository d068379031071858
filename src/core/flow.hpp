#pragma once
/// \file flow.hpp
/// \brief End-to-end T1-aware technology mapping flow (paper §II).
///
/// run_flow() drives the three stages on a mapped network:
///   1. T1 detection & rewrite (t1_detection.hpp)     — optional (`use_t1`),
///   2. phase assignment (phase_assignment.hpp),
///   3. DFF insertion (dff_insertion.hpp),
/// and reports the Table-I metrics: path-balancing DFF count, area in JJ,
/// and logic depth in clock cycles. Setting `clk.phases = 1, use_t1 = false`
/// reproduces the single-phase baseline (1φ); `phases = 4, use_t1 = false`
/// the multiphase baseline (4φ); `phases = 4, use_t1 = true` the paper's
/// proposed flow (column "T1").
///
/// run_flow() is exactly its two halves in sequence: run_logical_flow()
/// (cleanup, optional pre-mapping optimization, detection) and
/// run_physical_flow() (assignment, DFF insertion, metrics, physics oracle).
/// The ECO sessions of src/service/ call the halves directly, patching the
/// logical result in between.

#include <cstdint>
#include <optional>

#include "core/dff_insertion.hpp"
#include "core/phase_assignment.hpp"
#include "core/t1_detection.hpp"
#include "cost/cost_model.hpp"
#include "network/network.hpp"
#include "opt/pass.hpp"
#include "sfq/cell_library.hpp"
#include "sfq/clocking.hpp"
#include "verify/physics_check.hpp"

namespace t1sfq {

struct FlowParams {
  MultiphaseConfig clk{4};
  bool use_t1 = true;
  PhaseEngine engine = PhaseEngine::Heuristic;
  /// Latency slack for a min-area mode: extra stages granted to the balanced
  /// output sink (see PhaseAssignmentParams::output_slack).
  Stage output_slack = 0;
  CellLibrary lib{};
  AreaConfig area{};
  T1DetectionParams detection{};
  /// Pre-mapping logic optimization (opt/pass.hpp), run before T1 detection
  /// and priced through `cost()`. `opt.enable = false` reproduces the
  /// unoptimized seed flows.
  OptParams opt{};
  /// Record metrics and tracing spans (src/obs/) for the duration of this
  /// run_flow call. Off by default: the library stays silent and near-free.
  /// The environment variable `T1SFQ_TRACE` enables recording process-wide
  /// regardless of this flag.
  bool obs = false;
  /// Run the pulse-level physics oracle (verify/physics_check.hpp) on the
  /// final physical netlist against the flow's input network. A failing
  /// oracle makes run_flow throw std::runtime_error carrying the report
  /// summary (witness vector included); the report itself lands in
  /// FlowResult::physics either way. Off by default: it simulates hundreds
  /// of pulse waves and is meant for verification runs, not inner loops.
  bool physics_check = false;
  /// Oracle knobs (vector counts, seed, device probe) when physics_check is
  /// on.
  verify::PhysicsCheckParams physics{};

  /// The unified JJ cost model every stage of this flow prices against.
  CostModel cost() const { return CostModel(lib, area, clk); }
};

struct FlowMetrics {
  std::size_t num_gates = 0;      ///< logic cells (incl. T1 bodies, excl. DFFs)
  std::size_t num_dffs = 0;       ///< path-balancing DFFs (Table I "#DFF")
  std::size_t num_splitters = 0;
  uint64_t area_jj = 0;           ///< Table I "Area" (= breakdown.total())
  Stage depth_cycles = 0;         ///< Table I "Depth"
  std::size_t t1_found = 0;
  std::size_t t1_used = 0;
  // Pre-mapping optimization before/after (logical network, pre T1 rewrite).
  std::size_t pre_opt_gates = 0;  ///< gates entering the optimizer
  uint32_t pre_opt_depth = 0;     ///< levels entering the optimizer
  std::size_t opt_gates = 0;      ///< gates after optimization (= pre when off)
  uint32_t opt_depth = 0;         ///< levels after optimization
  std::size_t opt_applied = 0;    ///< local transforms committed
  // Unified JJ accounting (cost/cost_model.hpp), one currency per flow stage:
  // ASAP shared-spine estimates for the logical stages, exact for the final
  // physical netlist.
  uint64_t pre_opt_area_jj = 0;   ///< estimate entering the optimizer
  uint64_t opt_area_jj = 0;       ///< estimate after optimization
  uint64_t detect_area_jj = 0;    ///< estimate after T1 detection
  JJBreakdown breakdown{};        ///< final physical logic/DFF/splitter/clock split
};

/// Per-stage wall-clock times (steady_clock). Kept OUT of FlowMetrics on
/// purpose: golden tests and ECO-vs-cold identity assertions compare
/// FlowMetrics byte-for-byte, and timing must never participate.
struct FlowTimings {
  double cleanup_ms = 0.0;
  double opt_ms = 0.0;
  double detect_ms = 0.0;
  double assign_ms = 0.0;
  double insert_ms = 0.0;
  double physics_ms = 0.0;  ///< 0 unless FlowParams::physics_check
  double total_ms = 0.0;
};

struct FlowResult {
  Network mapped;           ///< logical network after (optional) T1 rewrite
  PhaseAssignment assignment;
  PhysicalNetlist physical;
  FlowMetrics metrics;
  OptSummary opt;           ///< per-pass optimization statistics
  FlowTimings timings;      ///< wall time per stage (never golden-compared)
  /// Physics-oracle report (ran == false unless FlowParams::physics_check).
  /// Kept OUT of FlowMetrics: golden tests compare FlowMetrics byte-for-byte
  /// and the oracle is an optional overlay, not a Table-I metric.
  verify::PhysicsReport physics;
};

class IncrementalView;

/// Fewest clock phases a T1 flow runs on: the three landing slots of eq. 3
/// need n ≥ 4.
constexpr unsigned kMinT1Phases = 4;

/// Runs the flow. Throws std::invalid_argument when `use_t1` is combined with
/// fewer than kMinT1Phases phases.
FlowResult run_flow(const Network& input, const FlowParams& params = {});

/// The logical half of run_flow: cleans \p input into `result.mapped`, runs
/// the optimizer and T1 detection on it (both priced through
/// `params.cost()`), and fills the pre-opt, opt and T1 metrics and timings.
/// A plan-tracking view over `result.mapped`, under that model, is handed
/// back live in \p view, T1 on or off (with T1, the one detection
/// maintained); it pins `result.mapped`, so \p result must stay put while
/// the view lives. Throws like run_flow on a T1 flow with fewer than 4
/// phases.
void run_logical_flow(const Network& input, const FlowParams& params,
                      FlowResult& result, std::optional<IncrementalView>& view);

/// The physical half of run_flow on `result.mapped`: phase assignment on
/// \p view (a plan-tracking view over `result.mapped`, in sync with it, built
/// under the flow's model), DFF insertion and the final metrics — all priced
/// and clocked through `view.model()` — then the physics oracle against
/// \p golden when `physics_check` is on. Throws InfeasibleScheduleError /
/// PhysicsViolationError like run_flow. `timings.total_ms` is left to the
/// caller.
void run_physical_flow(const Network& golden, const FlowParams& params,
                       FlowResult& result, const IncrementalView& view);

/// Full functional verification of a flow result against the original
/// network: SAT equivalence of the mapped network plus pulse-level simulation
/// of the physical netlist (timing legality + function).
bool verify_flow(const FlowResult& result, const Network& golden,
                 const MultiphaseConfig& clk, unsigned pulse_rounds = 2);

}  // namespace t1sfq
