#include "core/api.hpp"

#include <sstream>

#include "network/io.hpp"

namespace t1sfq {

FlowParams FlowRequest::to_flow_params() const {
  FlowParams p;
  p.clk = MultiphaseConfig{phases};
  p.use_t1 = use_t1;
  p.engine = engine;
  p.output_slack = output_slack;
  p.opt.enable = optimize;
  p.opt.rounds = opt_rounds;
  p.physics_check = physics_check;
  p.obs = observe;
  return p;
}

std::string FlowRequest::config_signature() const {
  std::ostringstream ss;
  ss << kFlowSchema << " phases=" << phases << " t1=" << (use_t1 ? 1 : 0)
     << " engine=" << (engine == PhaseEngine::ExactMilp ? "milp" : "heuristic")
     << " slack=" << output_slack << " opt=" << (optimize ? 1 : 0)
     << " opt_rounds=" << opt_rounds << " physics=" << (physics_check ? 1 : 0);
  return ss.str();
}

const char* to_string(FlowTier tier) {
  switch (tier) {
    case FlowTier::Cold: return "cold";
    case FlowTier::Warm: return "warm";
    case FlowTier::Eco: return "eco";
  }
  return "cold";
}

FlowResponse flow_response(const FlowResult& result, bool with_netlist) {
  FlowResponse resp;
  resp.ok = true;
  resp.metrics = result.metrics;
  resp.timings = result.timings;
  if (with_netlist) {
    std::ostringstream ss;
    write_blif(result.physical.net, ss);
    resp.netlist_blif = ss.str();
  }
  return resp;
}

FlowResponse error_response(const std::exception& e) {
  FlowResponse resp;
  resp.error = error_code_of(e);
  resp.message = e.what();
  return resp;
}

FlowResponse run_flow(const FlowRequest& request) {
  try {
    return flow_response(run_flow(request.network, request.to_flow_params()),
                         request.return_netlist);
  } catch (const std::exception& e) {
    return error_response(e);
  }
}

}  // namespace t1sfq
