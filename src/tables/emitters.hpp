// The paper-artifact table emitters (E1–E10 plus the dense-E6 and
// advisor-calibration artifacts), extracted from the bench mains into
// a library so the same code path serves three consumers:
//
//   * bench/bench_e*.cpp — print the tables, then run the registered
//     google-benchmark kernels;
//   * tests/test_engine_determinism.cpp — the tier-2 conformance suite:
//     every emitter must produce value- and byte-identical tables at
//     threads=1 and threads=N;
//   * ad-hoc tools that want one artifact without a bench binary.
//
// Every emitter runs its parameter sweeps through engine::Sweep on the
// caller-supplied Pool, shares guests / reference runs / Prop-2 plans
// through the caller-supplied PlanCache, and merges rows in point
// order — so its output is a pure function of the parameters, never of
// the thread count. When EngineCtx::metrics is set, every sweep also
// records per-point timing into it (engine/metrics.hpp) — the
// observability side channel the benches serialize as metrics_*.json.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/table.hpp"
#include "engine/metrics.hpp"
#include "engine/plan_cache.hpp"
#include "engine/pool.hpp"

namespace bsmp::tables {

/// Execution context every emitter runs in. `pool` and `plans` are
/// required; `metrics` is the optional observability sink — emitters
/// never read it, they only report into it.
struct EngineCtx {
  engine::Pool* pool = nullptr;
  engine::PlanCache* plans = nullptr;
  engine::Metrics* metrics = nullptr;
};

/// One emitted artifact: the table plus the commentary printed after it.
struct Emitted {
  core::Table table;
  std::string note;  ///< trailing commentary ("# ..."), may be empty
};

std::vector<Emitted> e1_tables(EngineCtx& ctx);   ///< intro matmul speedups
std::vector<Emitted> e2_tables(EngineCtx& ctx);   ///< Prop. 1 naive
std::vector<Emitted> e3_tables(EngineCtx& ctx);   ///< Thm 2 D&C d=1
std::vector<Emitted> e4_tables(EngineCtx& ctx);   ///< Thm 3 m sweep
std::vector<Emitted> e5_tables(EngineCtx& ctx);   ///< Thm 4 ranges
std::vector<Emitted> e6_tables(EngineCtx& ctx);   ///< A(s) ablation
std::vector<Emitted> e7_tables(EngineCtx& ctx);   ///< Thm 5 D&C d=2
std::vector<Emitted> e8_tables(EngineCtx& ctx);   ///< Thm 1 d=2
std::vector<Emitted> e9_tables(EngineCtx& ctx);   ///< figures 1-4
std::vector<Emitted> e10_tables(EngineCtx& ctx);  ///< baselines + Sec. 6

/// Dense every-s A(s) ablation (Section 4.2): one point per feasible
/// integer strip width, sharded across the pool with the guest and
/// reference run PlanCache-shared, feeding the three-mechanism
/// least-squares fit and a measured-vs-fitted argmin(s) comparison.
/// Emits one dense table per m plus a fit-summary table (golden-
/// digested by the conformance suite).
std::vector<Emitted> e6_dense_tables(EngineCtx& ctx);

/// Advisor calibration through the engine: the measured-constant
/// table of analytic::Calibration with every training measurement
/// produced by an engine sweep (see tables/calibration.hpp).
std::vector<Emitted> calibration_tables(EngineCtx& ctx);

/// Executor hot-path artifact: the flat-staging executor with the
/// guest's rule, with a SIMD row kernel and in validation mode over
/// identical full volumes (d=1 diamond, d=2 octahedron). The table
/// holds the deterministic agreement fields (vertices, peak staging,
/// slab allocations, charged totals); the
/// wall-clock throughput of each run is reported into ctx.metrics as
/// HotPathMetric records (serialized by bench_exec_hotpath as
/// metrics_hot.json). See tables/hotpath.hpp.
std::vector<Emitted> hot_tables(EngineCtx& ctx);

/// Batched-ensemble artifact: 64 perturbed initial conditions of a
/// cellular automaton evolved in one charged pass via the bit-sliced
/// lane batching of sep/guest.hpp. Asserts the count-based charging
/// invariant (batch charges == scalar charges, bit for bit) and emits
/// a lane-content digest; per-run throughput goes to ctx.metrics with
/// lanes = sep::kLanes (serialized and gated by bench_exec_batch).
std::vector<Emitted> ensemble_tables(EngineCtx& ctx);

/// One registry entry: a named table emitter.
struct Emitter {
  const char* name;  ///< registry key: "e1" … "e10", "e6d", "cal", "hot",
                     ///< "ens"
  const char* what;  ///< one-line description
  std::vector<Emitted> (*fn)(EngineCtx&);
};

/// The full emitter registry, in order: the ten paper artifacts
/// E1–E10 followed by the derived artifacts ("e6d" dense ablation,
/// "cal" advisor calibration, "hot" executor hot path). This is the
/// sweep surface the tier-2
/// conformance suite iterates — adding an emitter here automatically
/// puts it under the threads=1 vs threads=N byte-identity check (see
/// doc/ENGINE.md for the worked example).
const std::vector<Emitter>& all_emitters();

/// Lookup by registry name ("e5", "cal"); throws precondition_error
/// when unknown.
const Emitter& find_emitter(std::string_view name);

}  // namespace bsmp::tables
