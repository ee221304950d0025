#include <gtest/gtest.h>

#include "sim/observe.hpp"
#include "sim/reference.hpp"
#include "workload/rules.hpp"

using namespace bsmp;
using geom::Point;
using geom::Stencil;

TEST(FinalPoints, M1IsTheLastRow) {
  Stencil<1> st{{4}, 6, 1};
  auto pts = sim::final_points<1>(st);
  ASSERT_EQ(pts.size(), 4u);
  for (const auto& p : pts) EXPECT_EQ(p.t, 5);
}

TEST(FinalPoints, OnePerNodePerCell) {
  Stencil<1> st{{5}, 12, 3};
  auto pts = sim::final_points<1>(st);
  EXPECT_EQ(pts.size(), 15u);
  // Cell j was last written at the largest t < 12 with t ≡ j (mod 3):
  // j=0 -> 9, j=1 -> 10, j=2 -> 11.
  int count9 = 0, count10 = 0, count11 = 0;
  for (const auto& p : pts) {
    if (p.t == 9) ++count9;
    if (p.t == 10) ++count10;
    if (p.t == 11) ++count11;
  }
  EXPECT_EQ(count9, 5);
  EXPECT_EQ(count10, 5);
  EXPECT_EQ(count11, 5);
}

TEST(FinalPoints, MemoryDeeperThanHorizon) {
  // m > T: cells j >= T were never written and are skipped.
  Stencil<1> st{{3}, 4, 10};
  auto pts = sim::final_points<1>(st);
  EXPECT_EQ(pts.size(), 3u * 4u);
  for (const auto& p : pts) {
    EXPECT_GE(p.t, 0);
    EXPECT_LT(p.t, 4);
  }
}

TEST(FinalPoints, D2AndD3Counts) {
  Stencil<2> st2{{3, 4}, 5, 2};
  EXPECT_EQ(sim::final_points<2>(st2).size(), 3u * 4u * 2u);
  Stencil<3> st3{{2, 2, 2}, 3, 1};
  EXPECT_EQ(sim::final_points<3>(st3).size(), 8u);
}

TEST(ExtractFinal, PullsExactlyTheFinalPoints) {
  auto g = workload::make_mix_guest<1>({4}, 8, 2, 3);
  auto ref = sim::reference_run<1>(g);
  // extract_final over a superset staging store returns only the finals.
  sep::StagingStore<1> staging(&g.stencil);
  for (const auto& [q, v] : ref.final_values) staging.insert(q, v);
  staging.insert(Point<1>{{0}, 0}, 999);
  auto fin = sim::extract_final<1>(g.stencil, staging);
  EXPECT_EQ(fin.size(), 8u);
  EXPECT_FALSE(fin.contains(Point<1>{{0}, 0}));
  // The value-map overload (schedule runs) filters the same way.
  sep::ValueMap<1> values = ref.final_values;
  values.emplace(Point<1>{{0}, 0}, 999);
  EXPECT_TRUE(sim::same_values<1>(sim::extract_final<1>(g.stencil, values),
                                  fin));
}

TEST(ExtractFinal, MissingValueIsAnInvariantError) {
  Stencil<1> st{{4}, 4, 1};
  sep::StagingStore<1> empty(&st);
  EXPECT_THROW(sim::extract_final<1>(st, empty), bsmp::invariant_error);
  EXPECT_THROW(sim::extract_final<1>(st, sep::ValueMap<1>{}),
               bsmp::invariant_error);
}

TEST(SameValues, DetectsEveryKindOfMismatch) {
  sep::ValueMap<1> a, b;
  a.emplace(Point<1>{{0}, 1}, 5);
  b.emplace(Point<1>{{0}, 1}, 5);
  EXPECT_TRUE(sim::same_values<1>(a, b));
  b[Point<1>{{0}, 1}] = 6;
  EXPECT_FALSE(sim::same_values<1>(a, b));  // different value
  b[Point<1>{{0}, 1}] = 5;
  b.emplace(Point<1>{{1}, 1}, 5);
  EXPECT_FALSE(sim::same_values<1>(a, b));  // different size
  a.emplace(Point<1>{{2}, 1}, 5);
  EXPECT_FALSE(sim::same_values<1>(a, b));  // same size, different keys
}

TEST(Reference, FinalValuesCoverEveryCell) {
  auto g = workload::make_mix_guest<2>({3, 3}, 7, 4, 9);
  auto ref = sim::reference_run<2>(g);
  EXPECT_EQ(ref.final_values.size(), 9u * 4u);
}

TEST(Reference, HorizonShorterThanMemory) {
  // T < m: only T cells were ever written per node.
  auto g = workload::make_mix_guest<1>({5}, 3, 8, 4);
  auto ref = sim::reference_run<1>(g);
  EXPECT_EQ(ref.final_values.size(), 5u * 3u);
}
