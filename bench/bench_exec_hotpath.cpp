// HOT — the executor hot-path microbench. Prints the "hot" artifact
// (dense flat-staging executor, its SIMD-kernel variant, and the same
// executor in validation mode, with every deterministic field asserted
// equal), serializes the measured throughputs as metrics_hot.json,
// then runs google-benchmark kernels for the same full-volume
// executions — scalar and SIMD side by side, plus the SIMD build with
// the vector path forced off (the `simd_off` kernels) so one report
// separates "concrete kernel instead of std::function" from "vector
// row kernel" gains. A Release run's --benchmark_out is committed as
// bench/BENCH_exec_hotpath.json — the perf trajectory baseline; the
// acceptance bar is simd >= 2x dense vertices/sec on exec_d1_w512
// (doc/PERF.md).
#include "bench_common.hpp"
#include "sep/simd.hpp"
#include "tables/hotpath.hpp"
#include "workload/rules.hpp"

using namespace bsmp;

namespace {

template <int D>
sep::Guest<D> hot_guest(std::array<std::int64_t, D> extent,
                        std::int64_t horizon, std::int64_t m) {
  return workload::make_mix_guest<D>(extent, horizon, m, 7);
}

template <int D>
void bm_dense(benchmark::State& state, std::array<std::int64_t, D> extent,
              std::int64_t horizon, std::int64_t m) {
  auto g = hot_guest<D>(extent, horizon, m);
  std::int64_t vertices = 0;
  for (auto _ : state) {
    sep::StagingStore<D> staging(&g.stencil);
    auto s = tables::hotpath::run_dense<D>(g, staging);
    vertices = s.vertices;
    benchmark::DoNotOptimize(s.total_cost);
  }
  state.counters["vertices_per_sec"] =
      benchmark::Counter(static_cast<double>(vertices),
                         benchmark::Counter::kIsIterationInvariantRate);
}

/// The kernel-dispatch run: run_dense_kernel with workload::MixKernel,
/// the vector leaf path forced on or off around the timed loop (saved
/// and restored so bench order cannot leak state).
template <int D>
void bm_simd(benchmark::State& state, std::array<std::int64_t, D> extent,
             std::int64_t horizon, std::int64_t m, bool vector_path) {
  auto g = hot_guest<D>(extent, horizon, m);
  const bool saved = sep::simd::enabled();
  sep::simd::set_enabled(vector_path);
  state.SetLabel(sep::simd::active_isa());
  std::int64_t vertices = 0;
  for (auto _ : state) {
    sep::StagingStore<D> staging(&g.stencil);
    auto s = tables::hotpath::run_dense_kernel<D>(g, staging,
                                                  workload::MixKernel<D>{});
    vertices = s.vertices;
    benchmark::DoNotOptimize(s.total_cost);
  }
  sep::simd::set_enabled(saved);
  state.counters["vertices_per_sec"] =
      benchmark::Counter(static_cast<double>(vertices),
                         benchmark::Counter::kIsIterationInvariantRate);
}

// The d1_w512 kernels run the 512x512 volume at message delay m = 128
// (leaf_width = m keeps Theorem-3 executable diamonds): wide leaf rows
// are where the row kernel earns its keep, and the simd >= 2x dense
// bar is set on this config. The conformance "hot" emitter keeps its
// own m = 8 config — same volume, byte-identity assertions only.
void BM_exec_d1_w512_dense(benchmark::State& state) {
  bm_dense<1>(state, {512}, 512, 128);
}
void BM_exec_d1_w512_simd(benchmark::State& state) {
  bm_simd<1>(state, {512}, 512, 128, true);
}
void BM_exec_d1_w512_simd_off(benchmark::State& state) {
  bm_simd<1>(state, {512}, 512, 128, false);
}
void BM_exec_d2_w48_dense(benchmark::State& state) {
  bm_dense<2>(state, {48, 48}, 48, 4);
}
void BM_exec_d2_w48_simd(benchmark::State& state) {
  bm_simd<2>(state, {48, 48}, 48, 4, true);
}
void BM_exec_d2_w48_simd_off(benchmark::State& state) {
  bm_simd<2>(state, {48, 48}, 48, 4, false);
}

BENCHMARK(BM_exec_d1_w512_dense);
BENCHMARK(BM_exec_d1_w512_simd);
BENCHMARK(BM_exec_d1_w512_simd_off);
BENCHMARK(BM_exec_d2_w48_dense);
BENCHMARK(BM_exec_d2_w48_simd);
BENCHMARK(BM_exec_d2_w48_simd_off);

}  // namespace

BSMP_BENCH_MAIN("hot")
