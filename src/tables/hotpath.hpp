// The hot-path perf artifact ("hot" in the emitter registry): run the
// full space-time volume of a guest through the topological-separator
// executor with a StagingStore<D> (O(1) window addressing, count-based
// charging, batched leaf charges), driven through the same tile
// wavefronts as sim::simulate_dc_uniproc. The "hot" emitter runs it
// three ways — the guest's type-erased rule, a concrete SIMD row
// kernel, and validation mode — and asserts they agree exactly on
// vertices, charged totals, peak staging, slab allocations and every
// final value; only the wall clock may differ. The deterministic fields
// go into the emitted table; the timings go to engine::Metrics and
// are serialized as metrics_hot.json / BENCH_exec_hotpath.json.
#pragma once

#include <chrono>
#include <vector>

#include "core/cost.hpp"
#include "core/expect.hpp"
#include "geom/tiling.hpp"
#include "sep/executor.hpp"
#include "sep/guest.hpp"
#include "sep/staging.hpp"
#include "sim/dc_uniproc.hpp"

namespace bsmp::tables::hotpath {

/// What one full-volume execution reports. The wall clock is the only
/// field allowed to differ between runs of one guest.
struct ExecStats {
  std::int64_t vertices = 0;
  double seconds = 0;
  std::size_t peak_staging_words = 0;
  std::size_t staging_allocs = 0;     ///< level slabs allocated
  core::Cost total_cost = 0;          ///< ledger total (all cost kinds)
  double vertices_per_sec() const {
    return seconds > 0 ? static_cast<double>(vertices) / seconds : 0.0;
  }
};

namespace detail {

template <int D, class V>
sep::ExecutorConfig exec_config(const sep::BasicGuest<D, V>& guest) {
  sep::ExecutorConfig ecfg;
  ecfg.leaf_width = guest.stencil.m;  // Theorem-3 executable diamonds
  ecfg.f = hram::AccessFn::unit();
  return ecfg;
}

/// Drive `exec` over the full space-time volume in the same tile
/// wavefronts sim::simulate_dc_uniproc uses, pruning staging between
/// wavefronts; `staging` keeps the final rows for value comparison.
template <int D, class V, class Exec>
ExecStats drive(const sep::BasicGuest<D, V>& guest, Exec& exec,
                sep::StagingStore<D, V>& staging) {
  const geom::Stencil<D>& st = guest.stencil;
  core::CostLedger ledger;
  exec.set_ledger(&ledger);

  const auto t0 = std::chrono::steady_clock::now();
  sim::detail::run_waves(st, st.extent[0], staging,
                         [&](std::size_t, const auto& wave) {
                           for (const auto& tile : wave)
                             exec.execute(tile, staging);
                         });
  ExecStats s;
  s.seconds = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  s.vertices = exec.vertices_executed();
  s.peak_staging_words = exec.peak_staging();
  s.staging_allocs = staging.level_allocs();
  s.total_cost = ledger.total();
  return s;
}

}  // namespace detail

/// Full-volume run through the flat-staging executor + StagingStore,
/// generic over the guest value type (Word or sep::LaneBatch).
template <int D, class V>
ExecStats run_dense(const sep::BasicGuest<D, V>& guest,
                    sep::StagingStore<D, V>& staging) {
  sep::Executor<D, V> exec(&guest, detail::exec_config(guest));
  return detail::drive(guest, exec, staging);
}

namespace detail {

/// Adapter giving Executor::execute_with_rule the `execute(tile,
/// staging)` shape drive() expects, with a concrete kernel functor in
/// place of the guest's type-erased rule. When the kernel satisfies
/// sep::simd::RowKernel this is the SIMD leaf path; either way it
/// skips the per-vertex std::function dispatch.
template <int D, class Kernel>
struct KernelExec {
  sep::Executor<D, sep::Word> exec;
  Kernel kernel;

  void set_ledger(core::CostLedger* ledger) { exec.set_ledger(ledger); }
  void execute(const geom::Region<D>& U, sep::StagingStore<D>& staging) {
    exec.execute_with_rule(U, staging, kernel);
  }
  std::int64_t vertices_executed() const { return exec.vertices_executed(); }
  std::size_t peak_staging() const { return exec.peak_staging(); }
};

}  // namespace detail

/// Full-volume run through the flat-staging executor with a concrete
/// kernel functor (workload::MixKernel and friends) instead of the
/// guest's std::function rule. The kernel must compute exactly
/// guest.rule — charges and values are asserted equal to run_dense by
/// the "hot" emitter. With a RowKernel and sep::simd::enabled(), leaf
/// interiors run vectorized (doc/PERF.md "The SIMD leaf kernel").
template <int D, class Kernel>
ExecStats run_dense_kernel(const sep::Guest<D>& guest,
                           sep::StagingStore<D>& staging, Kernel kernel) {
  detail::KernelExec<D, Kernel> exec{
      sep::Executor<D, sep::Word>(&guest, detail::exec_config(guest)),
      kernel};
  return detail::drive(guest, exec, staging);
}

}  // namespace bsmp::tables::hotpath
