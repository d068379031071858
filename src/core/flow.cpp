#include "core/flow.hpp"

#include <chrono>
#include <optional>
#include <stdexcept>

#include "core/error.hpp"
#include "incr/incremental_view.hpp"
#include "network/equivalence.hpp"
#include "obs/trace.hpp"
#include "sfq/pulse_sim.hpp"

namespace t1sfq {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

}  // namespace

uint64_t physical_area_jj(const PhysicalNetlist& phys, const CellLibrary& lib,
                          const AreaConfig& cfg) {
  const CostModel model(lib, cfg, MultiphaseConfig{});
  return model.physical_breakdown(phys.net, phys.num_splitters).total();
}

FlowResult run_flow(const Network& input, const FlowParams& params) {
  obs::ScopedEnable obs_scope(params.obs);
  obs::Span flow_span("flow", "gates_in", static_cast<int64_t>(input.num_gates()));
  const Clock::time_point t_flow = Clock::now();

  FlowResult result;
  {
    // One analysis view shared across the detection/assignment boundary:
    // detection maintains it through every commit and rebinds it through its
    // final compaction, so the scheduler starts from maintained stages/slack
    // rather than a fresh O(n) build.
    std::optional<IncrementalView> view;
    run_logical_flow(input, params, result, view);
    run_physical_flow(input, params, result, *view);
  }
  result.timings.total_ms = ms_since(t_flow);
  obs::count("flow.runs");
  return result;
}

void run_logical_flow(const Network& input, const FlowParams& params,
                      FlowResult& result, std::optional<IncrementalView>& view) {
  if (params.use_t1 && params.clk.phases < 4) {
    throw std::invalid_argument(
        "run_flow: T1 cells need >= 4 clock phases (three distinct landing slots)");
  }
  view.reset();  // a view over a previous result.mapped would go stale
  {
    obs::Span span("flow.cleanup");
    const Clock::time_point t0 = Clock::now();
    result.mapped = input.cleanup();
    result.timings.cleanup_ms = ms_since(t0);
  }
  const CostModel model = params.cost();

  result.metrics.pre_opt_gates = result.mapped.num_gates();
  result.metrics.pre_opt_depth = result.mapped.depth();
  result.metrics.pre_opt_area_jj = model.network_breakdown(result.mapped).total();
  if (params.opt.enable) {
    obs::Span span("flow.opt", "gates_in",
                   static_cast<int64_t>(result.mapped.num_gates()));
    const Clock::time_point t0 = Clock::now();
    OptParams op = params.opt;
    op.clk = params.clk;
    op.lib = params.lib;
    op.area = params.area;
    result.opt = optimize(result.mapped, op);
    result.metrics.opt_applied = result.opt.total_applied;
    result.timings.opt_ms = ms_since(t0);
  }
  result.metrics.opt_gates = result.mapped.num_gates();
  result.metrics.opt_depth = result.mapped.depth();
  result.metrics.opt_area_jj = model.network_breakdown(result.mapped).total();

  if (!params.use_t1) {
    view.emplace(result.mapped, model, /*track_plan=*/true);
    return;
  }
  obs::Span span("flow.detect", "gates_in",
                 static_cast<int64_t>(result.mapped.num_gates()));
  const Clock::time_point t0 = Clock::now();
  view.emplace(result.mapped, model, /*track_plan=*/true);
  const T1DetectionStats det =
      detect_and_replace_t1(result.mapped, model, params.detection, &*view);
  result.metrics.t1_found = det.found;
  result.metrics.t1_used = det.used;  // detection compacts the network itself
  result.timings.detect_ms = ms_since(t0);
  span.arg("t1_used", static_cast<int64_t>(det.used));
}

void run_physical_flow(const Network& golden, const FlowParams& params,
                       FlowResult& result, const IncrementalView& view) {
  const CostModel model = params.cost();
  result.metrics.detect_area_jj = model.network_breakdown(result.mapped).total();

  PhaseAssignmentParams pp;
  pp.clk = params.clk;
  pp.engine = params.engine;
  pp.max_sweeps = params.max_sweeps;
  pp.milp_max_nodes = params.milp_max_nodes;
  pp.output_slack = params.output_slack;
  {
    obs::Span span("flow.assign", "gates_in",
                   static_cast<int64_t>(result.mapped.num_gates()));
    const Clock::time_point t0 = Clock::now();
    result.assignment = assign_phases(view, pp);
    result.timings.assign_ms = ms_since(t0);
  }
  if (!result.assignment.feasible) {
    throw InfeasibleScheduleError("run_flow: no feasible phase assignment");
  }

  {
    obs::Span span("flow.insert_dffs");
    const Clock::time_point t0 = Clock::now();
    result.physical = insert_dffs(result.mapped, result.assignment, params.clk);
    result.timings.insert_ms = ms_since(t0);
  }

  result.metrics.num_dffs = result.physical.num_dffs;
  result.metrics.num_splitters = result.physical.num_splitters;
  result.metrics.num_gates =
      result.physical.net.num_gates() - result.physical.num_dffs;
  result.metrics.breakdown =
      model.physical_breakdown(result.physical.net, result.physical.num_splitters);
  result.metrics.area_jj = result.metrics.breakdown.total();
  // Depth in cycles: epoch of the last real firing (the virtual PO sink sits
  // one stage after the deepest balanced element).
  result.metrics.depth_cycles = params.clk.cycles(result.assignment.output_stage - 1);

  if (params.physics_check) {
    obs::Span span("flow.physics");
    const Clock::time_point t0 = Clock::now();
    // Golden = the flow's *input*: the oracle then covers cleanup, opt, T1
    // rewrite, assignment and DFF insertion end to end, not just the last
    // stage.
    result.physics = verify::physics_check(result.physical, params.clk, golden,
                                           params.physics);
    result.timings.physics_ms = ms_since(t0);
    if (!result.physics.ok) {
      throw PhysicsViolationError("run_flow: " + result.physics.summary());
    }
  }
}

bool verify_flow(const FlowResult& result, const Network& golden,
                 const MultiphaseConfig& clk, unsigned pulse_rounds) {
  if (check_equivalence(result.mapped, golden).result != EquivalenceResult::Equivalent) {
    return false;
  }
  return pulse_verify(result.physical.net, result.physical.stage, clk, golden,
                      pulse_rounds);
}

}  // namespace t1sfq
