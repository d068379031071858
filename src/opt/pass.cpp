#include "opt/pass.hpp"

#include "network/equivalence.hpp"
#include "obs/trace.hpp"
#include "opt/balancing.hpp"
#include "opt/cut_rewriting.hpp"
#include "opt/resubstitution.hpp"
#include "part/shard_runner.hpp"

namespace t1sfq {

OptSummary PassManager::run(Network& net) {
  OptSummary summary;
  // Pass k's after-network is pass k+1's before-network: N passes visit N+1
  // states, each measured once.
  NetworkMeasure state = model_.measure_network(net);
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

      state = model_.measure_network(net);
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

PassManager PassManager::standard(const CostModel& model, const OptParams& params) {
  PassManager manager(model, params);
  if (params.cut_rewriting) {
    manager.add(std::make_unique<CutRewritingPass>(model, params));
  }
  if (params.balancing) {
    manager.add(std::make_unique<BalancingPass>(model, params));
  }
  if (params.resubstitution) {
    manager.add(std::make_unique<ResubstitutionPass>(model, params));
  }
  return manager;
}

OptSummary optimize(Network& net, const CostModel& model, const OptParams& params) {
  if (!params.enable || net.num_gates() == 0) {
    const NetworkMeasure m = model.measure_network(net);
    OptSummary summary;
    record_before(summary, m);
    record_after(summary, m);
    return summary;
  }
  if (params.partition_jobs > 0) {
    return part::optimize_partitioned(net, model, params);
  }
  return PassManager::standard(model, params).run(net);
}

}  // namespace t1sfq
