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
  if (params.use_t1 && params.clk.phases < kMinT1Phases) {
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

  const NetworkMeasure pre = model.measure_network(result.mapped);
  result.metrics.pre_opt_gates = pre.gates;
  result.metrics.pre_opt_depth = pre.depth;
  result.metrics.pre_opt_area_jj = pre.jj;
  NetworkMeasure post = pre;
  if (params.opt.enable) {
    obs::Span span("flow.opt", "gates_in", static_cast<int64_t>(pre.gates));
    const Clock::time_point t0 = Clock::now();
    result.opt = optimize(result.mapped, model, params.opt);
    result.metrics.opt_applied = result.opt.total_applied;
    result.timings.opt_ms = ms_since(t0);
    post = model.measure_network(result.mapped);
  }
  result.metrics.opt_gates = post.gates;
  result.metrics.opt_depth = post.depth;
  result.metrics.opt_area_jj = post.jj;

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
  // The view was built under the flow's model: every step below prices and
  // clocks through it.
  const CostModel& model = view.model();
  const MultiphaseConfig& clk = model.clk();
  result.metrics.detect_area_jj = view.estimate().total();

  PhaseAssignmentParams pp;
  pp.engine = params.engine;
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
    result.physical = insert_dffs(result.mapped, result.assignment, clk);
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
  result.metrics.depth_cycles = clk.cycles(result.assignment.output_stage - 1);

  if (params.physics_check) {
    obs::Span span("flow.physics");
    const Clock::time_point t0 = Clock::now();
    // Golden = the flow's *input*: the oracle then covers cleanup, opt, T1
    // rewrite, assignment and DFF insertion end to end, not just the last
    // stage.
    result.physics = verify::physics_check(result.physical, clk, golden, params.physics);
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
