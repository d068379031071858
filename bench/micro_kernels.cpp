/// \file micro_kernels.cpp
/// \brief google-benchmark microbenchmarks for the flow's hot kernels:
/// cut enumeration, T1 detection, phase assignment, DFF insertion, SAT
/// equivalence and the CDCL/simplex solver cores.

#include <benchmark/benchmark.h>

#include "benchmarks/arith.hpp"
#include "benchmarks/random_net.hpp"
#include "core/flow.hpp"
#include "core/t1_detection.hpp"
#include "network/cut_enumeration.hpp"
#include "network/equivalence.hpp"
#include "solver/lp.hpp"
#include "solver/sat.hpp"

namespace {

using namespace t1sfq;

Network make_adder(unsigned bits) {
  Network net;
  const Word a = add_pi_word(net, bits, "a");
  const Word b = add_pi_word(net, bits, "b");
  add_po_word(net, ripple_carry_adder(net, a, b, net.get_const0()), "s");
  return net;
}

/// Both callers' shapes, (cut_size, max_cuts): detection's 3 x 16 and cut
/// rewriting's 4 x 12, on a 1k-gate net of the service family.
void BM_CutEnumeration(benchmark::State& state) {
  const Network net = bench::random_network(1, 64, 1000, bench::RandomPoPolicy::AllSinks, 200);
  CutEnumerationParams params;
  params.cut_size = static_cast<unsigned>(state.range(0));
  params.max_cuts = static_cast<unsigned>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(enumerate_cuts(net, params));
  }
  state.SetItemsProcessed(state.iterations() * net.num_gates());
}
BENCHMARK(BM_CutEnumeration)->Args({3, 16})->Args({4, 12});

void BM_T1Detection(benchmark::State& state) {
  const Network net = make_adder(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    Network work = net;
    benchmark::DoNotOptimize(detect_and_replace_t1(work, CostModel{}));
  }
}
BENCHMARK(BM_T1Detection)->Arg(16)->Arg(64)->Arg(128);

void BM_PhaseAssignment(benchmark::State& state) {
  Network net = make_adder(static_cast<unsigned>(state.range(0)));
  detect_and_replace_t1(net, CostModel{});
  net = net.cleanup();
  const MultiphaseConfig clk{4};
  for (auto _ : state) {
    benchmark::DoNotOptimize(assign_phases(net, clk));
  }
}
BENCHMARK(BM_PhaseAssignment)->Arg(16)->Arg(64)->Arg(128);

void BM_DffInsertion(benchmark::State& state) {
  Network net = make_adder(static_cast<unsigned>(state.range(0)));
  const MultiphaseConfig clk{4};
  const auto pa = assign_phases(net, clk);
  for (auto _ : state) {
    benchmark::DoNotOptimize(insert_dffs(net, pa, clk));
  }
}
BENCHMARK(BM_DffInsertion)->Arg(16)->Arg(64)->Arg(128);

void BM_FullT1Flow(benchmark::State& state) {
  const Network net = make_adder(static_cast<unsigned>(state.range(0)));
  FlowParams p;
  p.clk.phases = 4;
  p.opt.enable = false;  // keep the seed flow's timing baseline comparable
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_flow(net, p));
  }
}
BENCHMARK(BM_FullT1Flow)->Arg(16)->Arg(64)->Arg(128);

void BM_Optimize(benchmark::State& state) {
  const Network net = make_adder(static_cast<unsigned>(state.range(0)));
  OptParams op;
  op.verify = false;  // time the passes, not the equivalence guard
  for (auto _ : state) {
    state.PauseTiming();
    Network copy = net;
    state.ResumeTiming();
    benchmark::DoNotOptimize(optimize(copy, CostModel{}, op));
  }
  state.SetItemsProcessed(state.iterations() * net.num_gates());
}
BENCHMARK(BM_Optimize)->Arg(16)->Arg(64)->Arg(128);

void BM_SatEquivalence(benchmark::State& state) {
  const Network a = make_adder(static_cast<unsigned>(state.range(0)));
  Network b = a;
  detect_and_replace_t1(b, CostModel{});
  b = b.cleanup();
  for (auto _ : state) {
    benchmark::DoNotOptimize(check_equivalence_sat(a, b));
  }
}
BENCHMARK(BM_SatEquivalence)->Arg(8)->Arg(16)->Arg(32);

void BM_SatPigeonhole(benchmark::State& state) {
  const int holes = static_cast<int>(state.range(0));
  for (auto _ : state) {
    SatSolver s;
    std::vector<std::vector<Var>> x(holes + 1, std::vector<Var>(holes));
    for (auto& row : x) {
      for (auto& v : row) {
        v = s.new_var();
      }
    }
    for (int p = 0; p <= holes; ++p) {
      std::vector<Lit> cl;
      for (int h = 0; h < holes; ++h) {
        cl.push_back(pos_lit(x[p][h]));
      }
      s.add_clause(cl);
    }
    for (int h = 0; h < holes; ++h) {
      for (int p1 = 0; p1 <= holes; ++p1) {
        for (int p2 = p1 + 1; p2 <= holes; ++p2) {
          s.add_clause({neg_lit(x[p1][h]), neg_lit(x[p2][h])});
        }
      }
    }
    benchmark::DoNotOptimize(s.solve());
  }
}
BENCHMARK(BM_SatPigeonhole)->Arg(5)->Arg(7);

void BM_Simplex(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  LinearProgram lp;
  std::vector<int> vars;
  for (int i = 0; i < n; ++i) {
    vars.push_back(lp.add_variable(0.0, 100.0, 1.0));
  }
  for (int i = 0; i + 1 < n; ++i) {
    lp.add_row({{vars[i], -1.0}, {vars[i + 1], 1.0}}, 1.0, kLpInfinity);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_lp(lp));
  }
}
BENCHMARK(BM_Simplex)->Arg(10)->Arg(40)->Arg(80);

}  // namespace

BENCHMARK_MAIN();
