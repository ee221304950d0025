// "hot" — the executor hot-path artifact: the dense flat-staging
// executor, its SIMD-kernel variant (run_dense_kernel +
// workload::MixKernel), and the same dense executor in validation mode
// (ExecutorConfig::validate: per-level materialization and partition
// asserts) over the same full volumes. The three must agree on every
// deterministic field, and the dense final values must equal the
// direct guest run (sim::reference_run). The emitted table carries
// only run-to-run deterministic fields (and is therefore under the
// tier-2 byte-identity check like every other emitter — identical with
// BSMP_SIMD on or off, since the ISA only reaches the observational
// metrics); wall-clock throughput goes to EngineCtx::metrics, which
// bench_exec_hotpath serializes as metrics_hot.json.
//
// The two configs run as points of one engine sweep (not a bare loop)
// so the emitter exercises the whole stack bench_exec_hotpath traces:
// sweep points, the pool's fork-join layer, the separator recursion
// and the staging pruning all appear in trace_hot.json. Table rows and
// hot-metric records are appended after the sweep, in point order, so
// the artifact stays byte-identical at any thread count.
#include <string>
#include <utility>

#include "sep/simd.hpp"
#include "sim/observe.hpp"
#include "sim/reference.hpp"
#include "tables/detail.hpp"
#include "tables/emitters.hpp"
#include "tables/hotpath.hpp"
#include "workload/rules.hpp"

namespace bsmp::tables {

namespace {

/// Deterministic result of one hot config (all three runs' stats; the
/// seconds fields are observational and never reach the table).
struct HotRun {
  std::string label;
  hotpath::ExecStats dense, simd, validated;
};

/// Require `got` to equal the dense run in every deterministic field.
void require_same(const std::string& label, const char* what,
                  const hotpath::ExecStats& got,
                  const hotpath::ExecStats& dense) {
  BSMP_REQUIRE_MSG(got.vertices == dense.vertices,
                   label << ": " << what << " executed a different vertex "
                                            "count");
  BSMP_REQUIRE_MSG(got.total_cost == dense.total_cost,
                   label << ": " << what << " charged a different total");
  BSMP_REQUIRE_MSG(got.peak_staging_words == dense.peak_staging_words,
                   label << ": " << what << " disagrees on peak staging");
  BSMP_REQUIRE_MSG(got.staging_allocs == dense.staging_allocs,
                   label << ": " << what << " disagrees on slab allocations");
}

template <int D>
HotRun hot_config(const std::string& label,
                  std::array<std::int64_t, D> extent, std::int64_t horizon,
                  std::int64_t m) {
  auto guest = workload::make_mix_guest<D>(extent, horizon, m, 7);

  sep::StagingStore<D> dense_staging(&guest.stencil);
  hotpath::ExecStats dense = hotpath::run_dense<D>(guest, dense_staging);
  const auto dense_fin = sim::extract_final<D>(guest.stencil, dense_staging);
  BSMP_REQUIRE_MSG(
      sim::same_values<D>(dense_fin, sim::reference_run(guest).final_values),
      label << ": dense executor diverged from the direct guest run");

  // The SIMD leaf path: identical to dense in every deterministic field
  // — values, charge totals, peak staging, even the slab allocation
  // count — whether the vector path ran or the scalar fallback did
  // (doc/PERF.md "Byte identity").
  sep::StagingStore<D> simd_staging(&guest.stencil);
  hotpath::ExecStats simd = hotpath::run_dense_kernel<D>(
      guest, simd_staging, workload::MixKernel<D>{});
  require_same(label, "simd", simd, dense);
  BSMP_REQUIRE_MSG(
      sim::same_values<D>(
          dense_fin, sim::extract_final<D>(guest.stencil, simd_staging)),
      label << ": simd computed different guest values");

  // Validation mode re-materializes every preboundary and out-set and
  // asserts the topological-partition property; the count-based fast
  // path must charge and stage exactly what it does.
  sep::ExecutorConfig vcfg = hotpath::detail::exec_config(guest);
  vcfg.validate = true;
  sep::Executor<D> vexec(&guest, vcfg);
  sep::StagingStore<D> valid_staging(&guest.stencil);
  hotpath::ExecStats validated =
      hotpath::detail::drive(guest, vexec, valid_staging);
  require_same(label, "validated", validated, dense);
  BSMP_REQUIRE_MSG(
      sim::same_values<D>(
          dense_fin, sim::extract_final<D>(guest.stencil, valid_staging)),
      label << ": validated computed different guest values");

  return {label, dense, simd, validated};
}

}  // namespace

std::vector<Emitted> hot_tables(EngineCtx& ctx) {
  std::vector<int> configs{0, 1};
  std::vector<HotRun> runs = detail::sweep_values<HotRun>(
      ctx, configs,
      [](int config, engine::SweepContext&) -> HotRun {
        if (config == 0)
          return hot_config<1>("exec_d1_w512", {512}, 512, 8);
        return hot_config<2>("exec_d2_w48", {48, 48}, 48, 4);
      },
      "hot configs");

  core::Table t("HOT: executor hot path, dense flat staging (scalar, "
                "SIMD kernel, validation mode; same run)",
                {"config", "run", "vertices", "peak staging", "slab allocs",
                 "cost total"});
  for (const HotRun& r : runs) {
    const std::pair<const hotpath::ExecStats*, const char*> kinds[] = {
        {&r.dense, "dense"}, {&r.simd, "simd"}, {&r.validated, "validated"}};
    for (const auto& [run, kind] : kinds) {
      t.add_row({r.label, std::string(kind),
                 static_cast<long long>(run->vertices),
                 static_cast<long long>(run->peak_staging_words),
                 static_cast<long long>(run->staging_allocs),
                 run->total_cost});
      if (ctx.metrics != nullptr) {
        engine::HotPathMetric h;
        h.label = r.label + "/" + kind;
        h.vertices = run->vertices;
        h.seconds = run->seconds;
        h.peak_staging_words = run->peak_staging_words;
        h.staging_allocs = run->staging_allocs;
        if (run == &r.simd) {
          h.simd_isa = sep::simd::active_isa();
          h.simd_lanes = sep::simd::lane_width();
        }
        ctx.metrics->record_hot(std::move(h));
      }
    }
  }
  return {{std::move(t),
           "# All three runs agree on every deterministic field above, and\n"
           "# dense matches the direct guest run (asserted): only throughput\n"
           "# may differ. Wall-clock numbers are recorded via engine::Metrics\n"
           "# — see metrics_hot.json (\"hot\" array) and\n"
           "# BENCH_exec_hotpath.json.\n"}};
}

}  // namespace bsmp::tables
