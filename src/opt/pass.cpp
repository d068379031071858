#include "opt/pass.hpp"

#include <algorithm>

#include "core/phase_assignment.hpp"
#include "network/equivalence.hpp"
#include "obs/trace.hpp"
#include "opt/balancing.hpp"
#include "opt/cut_rewriting.hpp"
#include "opt/resubstitution.hpp"
#include "part/shard_runner.hpp"

namespace t1sfq {

bool is_opt_gate(GateType type) {
  switch (type) {
    case GateType::Not:
    case GateType::And2:
    case GateType::Or2:
    case GateType::Xor2:
    case GateType::Nand2:
    case GateType::Nor2:
    case GateType::Xnor2:
    case GateType::And3:
    case GateType::Or3:
    case GateType::Xor3:
    case GateType::Maj3:
      return true;
    default:
      return false;
  }
}

int64_t estimate_plan_dffs(const Network& net, const MultiphaseConfig& clk) {
  const auto lvl = net.levels();
  std::vector<Stage> stage(lvl.size(), 0);
  Stage max_po = 0;
  for (NodeId id = 0; id < net.size(); ++id) {
    stage[id] = static_cast<Stage>(lvl[id]);
  }
  for (const NodeId po : net.pos()) {
    max_po = std::max(max_po, stage[po]);
  }
  return plan_dffs(net, stage, max_po + 1, clk).total_dffs();
}

namespace {

/// One measurement of a network state — the figures PassStats and
/// OptSummary record around a pass — from a single ASAP recurrence and DFF
/// plan (the unified estimate's own).
struct NetworkMeasure {
  std::size_t gates = 0;
  uint32_t depth = 0;
  int64_t plan_dffs = 0;  ///< == estimate_plan_dffs(net, model.clk())
  uint64_t jj = 0;        ///< == model.network_breakdown(net).total()
};

NetworkMeasure measure_network(const Network& net, const CostModel& model) {
  NetworkMeasure m;
  Stage out = 1;
  m.jj = model.network_breakdown(net, &out, &m.plan_dffs).total();
  m.gates = net.num_gates();
  m.depth = static_cast<uint32_t>(out - 1);  // the sink sits one past the deepest PO
  return m;
}

template <class Stats>
void record_before(Stats& s, const NetworkMeasure& m) {
  s.gates_before = m.gates;
  s.depth_before = m.depth;
  s.plan_dffs_before = m.plan_dffs;
  s.jj_before = m.jj;
}

template <class Stats>
void record_after(Stats& s, const NetworkMeasure& m) {
  s.gates_after = m.gates;
  s.depth_after = m.depth;
  s.plan_dffs_after = m.plan_dffs;
  s.jj_after = m.jj;
}

}  // namespace

OptSummary PassManager::run(Network& net) {
  const CostModel model = params_.cost();
  OptSummary summary;
  // Pass k's after-network is pass k+1's before-network: N passes visit N+1
  // states, each measured once.
  NetworkMeasure state = measure_network(net, model);
  record_before(summary, state);

  for (unsigned round = 0; round < params_.rounds; ++round) {
    std::size_t round_applied = 0;
    for (const auto& pass : passes_) {
      PassStats ps;
      ps.name = pass->name();
      ps.round = round;
      record_before(ps, state);

      Network before;
      if (params_.verify) {
        before = net;  // only the guard needs the pre-pass snapshot
      }
      {
        obs::Span span(pass->name());
        ps.applied = pass->run(net);
        span.arg("applied", static_cast<int64_t>(ps.applied));
      }
      net.sweep_dangling();
      net = net.cleanup();

      if (params_.verify && ps.applied > 0) {
        obs::Span span("opt.verify");
        obs::count("opt.verify.checks");
        const EquivalenceCheck check =
            check_equivalence(net, before, /*sim_rounds=*/8, params_.verify_conflict_budget);
        if (check.result == EquivalenceResult::NotEquivalent) {
          net = before.cleanup();
          ps.applied = 0;
          ps.verdict = PassVerdict::Reverted;
          obs::count("opt.pass.reverted");
        } else if (check.result == EquivalenceResult::Equivalent) {
          ps.verdict = PassVerdict::Proved;
        } else {
          ps.verdict = PassVerdict::Unknown;
        }
      }
      if (obs::enabled()) {
        obs::count(std::string("opt.") + pass->name() + ".applied", ps.applied);
        obs::count("opt.pass.runs");
      }

      state = measure_network(net, model);
      record_after(ps, state);
      round_applied += ps.applied;
      summary.passes.push_back(std::move(ps));
    }
    if (round_applied == 0) {
      break;  // fixed point
    }
  }

  record_after(summary, state);
  for (const PassStats& ps : summary.passes) {
    summary.total_applied += ps.applied;
  }
  return summary;
}

PassManager PassManager::standard(const OptParams& params) {
  PassManager manager(params);
  if (params.cut_rewriting) {
    manager.add(std::make_unique<CutRewritingPass>(params));
  }
  if (params.balancing) {
    manager.add(std::make_unique<BalancingPass>(params));
  }
  if (params.resubstitution) {
    manager.add(std::make_unique<ResubstitutionPass>(params));
  }
  return manager;
}

OptSummary optimize(Network& net, const OptParams& params) {
  if (!params.enable || net.num_gates() == 0) {
    OptSummary summary;
    summary.gates_before = summary.gates_after = net.num_gates();
    summary.depth_before = summary.depth_after = net.depth();
    summary.jj_before = summary.jj_after = params.cost().network_breakdown(net).total();
    return summary;
  }
  if (params.partition_jobs > 0) {
    return part::optimize_partitioned(net, params);
  }
  PassManager manager = PassManager::standard(params);
  return manager.run(net);
}

}  // namespace t1sfq
