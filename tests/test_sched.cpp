// The schedule IR: planning, static validation, replay, and re-costing
// under different memory regimes.
#include <gtest/gtest.h>

#include "core/logmath.hpp"
#include "machine/spec.hpp"
#include "sched/planner.hpp"
#include "sched/runner.hpp"
#include "sim/dc_uniproc.hpp"
#include "sim/observe.hpp"
#include "sim/reference.hpp"
#include "workload/rules.hpp"

using namespace bsmp;
using sched::OpKind;
using sched::Planner;
using sched::PlannerConfig;

namespace {

template <int D>
PlannerConfig<D> cfg_for(const geom::Stencil<D>& st, int64_t tile,
                         int64_t leaf) {
  PlannerConfig<D> cfg;
  cfg.tile_width = tile;
  cfg.leaf_width = leaf;
  cfg.machine_scale =
      static_cast<double>(st.num_nodes() * st.m);
  return cfg;
}

/// The planner's cost_under against a dc_uniproc run with one tile the
/// size of the mesh and the given leaf width.
template <int D>
void expect_cost_under_matches(const sep::Guest<D>& g, int64_t leaf) {
  const int64_t side = g.stencil.extent[0];
  machine::MachineSpec host{D, g.stencil.num_nodes(), 1, g.stencil.m};
  sim::DcConfig dc;
  dc.tile_width = side;
  dc.leaf_width = leaf;
  auto res = sim::simulate_dc_uniproc<D>(g, host, dc);
  Planner<D> planner(&g.stencil, cfg_for<D>(g.stencil, side, leaf));
  double planned = planner.plan().cost_under(g.stencil, host.access_fn());
  EXPECT_NEAR(planned, res.time, 1e-6 * res.time) << "D=" << D;
}

}  // namespace

TEST(Schedule, PlanCoversEveryVertexExactlyOnce) {
  for (int64_t m : {1, 2, 4}) {
    geom::Stencil<1> st{{12}, 15, m};
    Planner<1> planner(&st, cfg_for<1>(st, 6, m));
    auto sched = planner.plan();
    EXPECT_EQ(sched.vertices(st), 12 * 15) << m;
    EXPECT_GT(sched.count(OpKind::kLeaf), 0) << m;
  }
}

TEST(Schedule, RunnerReproducesTheGuest) {
  for (int64_t tile : {4, 8, 16}) {
    auto g = workload::make_mix_guest<1>({16}, 16, 2, tile);
    geom::Stencil<1>& st = g.stencil;
    Planner<1> planner(&st, cfg_for<1>(st, tile, 2));
    auto sched = planner.plan();
    auto run = sched::run_schedule<1>(g, sched);
    auto ref = sim::reference_run<1>(g);
    auto fin = sim::extract_final<1>(st, run.values);
    EXPECT_TRUE(sim::same_values<1>(fin, ref.final_values)) << tile;
  }
}

TEST(Schedule, RunnerWorks2DAnd3D) {
  auto g2 = workload::make_mix_guest<2>({4, 4}, 5, 1, 3);
  Planner<2> p2(&g2.stencil, cfg_for<2>(g2.stencil, 4, 1));
  auto run2 = sched::run_schedule<2>(g2, p2.plan());
  auto ref2 = sim::reference_run<2>(g2);
  EXPECT_TRUE(sim::same_values<2>(
      sim::extract_final<2>(g2.stencil, run2.values), ref2.final_values));

  auto g3 = workload::make_mix_guest<3>({2, 2, 2}, 3, 1, 4);
  Planner<3> p3(&g3.stencil, cfg_for<3>(g3.stencil, 2, 1));
  auto run3 = sched::run_schedule<3>(g3, p3.plan());
  auto ref3 = sim::reference_run<3>(g3);
  EXPECT_TRUE(sim::same_values<3>(
      sim::extract_final<3>(g3.stencil, run3.values), ref3.final_values));
}

TEST(Schedule, CostUnderMatchesExecutorExactly) {
  // The planner emits exactly the operations the Executor charges:
  // evaluating the schedule under the host's access function must give
  // the dc driver's total to the last bit (same formulas, same counts).
  for (int64_t m : {1, 3}) {
    auto g = workload::make_mix_guest<1>({16}, 16, m, 7);
    machine::MachineSpec host{1, 16, 1, m};
    auto res = sim::simulate_dc_uniproc<1>(g, host);

    PlannerConfig<1> cfg = cfg_for<1>(g.stencil, 16, m);
    Planner<1> planner(&g.stencil, cfg);
    auto sched = planner.plan();
    double planned = sched.cost_under(g.stencil, host.access_fn());
    EXPECT_NEAR(planned, res.time, 1e-6 * res.time) << "m=" << m;
  }
  // d >= 2, one tile the size of the mesh and leaves wide enough for
  // interior spans: the planner counts operands with Stencil::preds, so
  // it checks the leaf walk's charges without sharing its code.
  expect_cost_under_matches<2>(
      workload::make_mix_guest<2>({16, 16}, 16, 4, 8), 8);
  expect_cost_under_matches<3>(
      workload::make_mix_guest<3>({8, 8, 8}, 12, 2, 9), 8);
}

TEST(Schedule, ReCostingUnderUnitRam) {
  // The same plan on the instantaneous machine costs a constant per
  // vertex — the whole locality slowdown is the access function.
  geom::Stencil<1> st{{32}, 32, 1};
  Planner<1> planner(&st, cfg_for<1>(st, 32, 1));
  auto sched = planner.plan();
  double unit = sched.cost_under(st, hram::AccessFn::unit());
  double hier =
      sched.cost_under(st, hram::AccessFn::hierarchical(1, 1.0));
  // Unit-cost: O(1) per vertex plus O(1) per staged word — the word
  // count is Θ(|V| log n), so ~O(log n) per vertex overall.
  EXPECT_LT(unit, 8.0 * core::logbar(32.0) * 32 * 32);
  EXPECT_GT(hier / unit, 10.0);  // locality slowdown is real
}

TEST(Schedule, PipelinedCopiesAreCheaper) {
  geom::Stencil<1> st{{32}, 32, 4};
  Planner<1> planner(&st, cfg_for<1>(st, 16, 4));
  auto sched = planner.plan();
  auto f = hram::AccessFn::hierarchical(1, 4.0);
  EXPECT_LT(sched.cost_under(st, f, /*pipelined=*/true),
            sched.cost_under(st, f, /*pipelined=*/false));
}

TEST(Schedule, SummaryAndCounts) {
  geom::Stencil<1> st{{8}, 8, 1};
  Planner<1> planner(&st, cfg_for<1>(st, 8, 1));
  auto sched = planner.plan();
  EXPECT_EQ(sched.count(OpKind::kCopyIn) + sched.count(OpKind::kLeaf) +
                sched.count(OpKind::kCopyOut),
            static_cast<int64_t>(sched.size()));
  EXPECT_GT(sched.words_moved(), 0);
  auto s = sched.summary();
  EXPECT_NE(s.find("leaves="), std::string::npos);
}

TEST(Schedule, BrokenOrderIsCaughtByRunner) {
  // Reverse the leaf ops: operands are no longer ready.
  auto g = workload::make_mix_guest<1>({8}, 8, 1, 6);
  Planner<1> planner(&g.stencil, cfg_for<1>(g.stencil, 8, 1));
  auto sched = planner.plan();
  sched::Schedule<1> reversed;
  for (auto it = sched.ops().rbegin(); it != sched.ops().rend(); ++it)
    reversed.push(*it);
  EXPECT_THROW(sched::run_schedule<1>(g, reversed), bsmp::invariant_error);
}

TEST(Schedule, DuplicatedLeafIsCaughtByRunner) {
  auto g = workload::make_mix_guest<1>({8}, 8, 1, 6);
  Planner<1> planner(&g.stencil, cfg_for<1>(g.stencil, 8, 1));
  auto sched = planner.plan();
  sched::Schedule<1> doubled;
  for (const auto& op : sched.ops()) {
    doubled.push(op);
    if (op.kind == OpKind::kLeaf) doubled.push(op);
  }
  EXPECT_THROW(sched::run_schedule<1>(g, doubled), bsmp::invariant_error);
}

TEST(Schedule, LeafWidthTradesOpsForWords) {
  // Larger leaves: fewer ops, fewer staged words (Theorem 3's
  // executable diamonds absorb the recursion).
  geom::Stencil<1> st{{32}, 32, 4};
  Planner<1> fine(&st, cfg_for<1>(st, 16, 1));
  Planner<1> coarse(&st, cfg_for<1>(st, 16, 4));
  auto a = fine.plan(), b = coarse.plan();
  EXPECT_GT(a.size(), b.size());
  EXPECT_GT(a.words_moved(), b.words_moved());
}
