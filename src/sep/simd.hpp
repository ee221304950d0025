/// \file
/// SIMD kernel plumbing for the separator executor's leaf loop.
//
// The dense leaf window (sep/staging.hpp LeafWindow) stores each time
// level's cells contiguously in row-major order, so the innermost
// spatial dimension of every leaf row is a structure-of-arrays span:
// `n` consecutive cells whose operands are `n` consecutive words in
// the rows below. The executor's one leaf walk hands every such
// interior span to one evaluator; a *row kernel* evaluates the guest
// rule over the span in one call — the compiler vectorizes the span
// loop (AVX2 / AVX-512 on x86-64, NEON on aarch64) — and without one
// the evaluator calls the rule once per cell. The charge stream is
// count-based and per cell, so it does not depend on which ran.
//
// Contract (doc/ENGINE.md "SIMD kernels", doc/PERF.md):
//
//   * a rule functor R advertises a kernel for dimension D by
//     providing
//
//         void row(Word* out, const Word* self,
//                  const Word* const* nbrs,   // geom::kMono<D> rows
//                  std::size_t n, geom::Point<D> p0,
//                  std::int64_t xstride) const;
//
//     which must compute out[i] = R{}(p_i, self[i], {nbrs[k][i]})
//     for i in [0, n), where p_i is p0 with the innermost spatial
//     coordinate advanced by xstride * i. xstride = 1 is the leaf-row
//     form (adjacent cells); xstride = 0 is the SoA lane form (all 64
//     lanes of one point, see soa_rule below);
//   * byte identity: kernels are pure integer programs, so every ISA
//     (and the always-compiled scalar fallback) produces bit-identical
//     values, and the executor's charging never depends on how a value
//     was computed — the CostLedger stream, charged totals, peak
//     staging and every emitted table are unchanged by BSMP_SIMD;
//   * selection: the BSMP_SIMD environment variable ("off"/"0"/
//     "scalar" disables, anything else enables; see simd::enabled)
//     picks, at runtime, between the kernel and per-cell evaluation of
//     the same spans, and on x86-64 the kernels themselves
//     are compiled as target_clones so one binary carries scalar, AVX2
//     and (GCC) AVX-512 versions dispatched by the loader.
#pragma once

#include <cstdint>

#include "geom/lattice.hpp"
#include "sep/guest.hpp"

// Per-kernel function multiversioning: one symbol, several ISA bodies,
// IFUNC-dispatched at load time. The "default" clone is the
// always-compiled scalar-ISA fallback (still auto-vectorized for the
// baseline ISA). Clang's target_clones does not accept arch= levels,
// so it gets the AVX2 clone only; GCC additionally gets x86-64-v4
// (AVX-512F/BW/CD/DQ/VL), whose native 64-bit vector multiply the mix
// kernel leans on.
// ThreadSanitizer builds (GCC defines __SANITIZE_THREAD__) carry the
// default clone only: the loader runs IFUNC resolvers before the TSan
// runtime is initialized, and an instrumented resolver crashes the
// process at startup.
#if defined(__SANITIZE_THREAD__)
#define BSMP_SIMD_CLONES
#elif defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define BSMP_SIMD_CLONES \
  __attribute__((target_clones("default", "avx2", "arch=x86-64-v4")))
#elif defined(__x86_64__) && defined(__clang__)
#define BSMP_SIMD_CLONES __attribute__((target_clones("default", "avx2")))
#else
#define BSMP_SIMD_CLONES
#endif

namespace bsmp::sep::simd {

/// Runtime SIMD switch. Defaults from the BSMP_SIMD environment
/// variable at first use: "0", "off" or "scalar" (case-sensitive)
/// make the leaf evaluate every interior span one rule call per cell;
/// unset or anything else lets a rule's row kernel take the spans.
/// Per-process, settable by tests and benches.
bool enabled();

/// Override the runtime switch (tests; the bench's side-by-side runs).
void set_enabled(bool on);

/// The instruction set the row kernels dispatch to right now:
/// "avx512", "avx2" or "sse2" on x86-64, "neon" on aarch64 — or
/// "scalar" when row kernels are disabled (BSMP_SIMD off) or no
/// kernels are compiled for this target.
const char* active_isa();

/// 64-bit lanes one vector operation of active_isa() carries: 8 for
/// avx512, 4 for avx2, 2 for sse2/neon, 1 for scalar. Reported as
/// `simd_lanes` in the metrics hot block.
int lane_width();

/// Detects whether R provides the dimension-D row kernel of the header
/// contract. The executor's leaf hands an interior span to the kernel
/// only when this holds for the rule it was handed *and* values are
/// plain words (V = Word) *and* simd::enabled() — otherwise it
/// evaluates the same span with one rule call per cell.
template <class R, int D>
concept RowKernel = requires(const R& r, Word* out, const Word* self,
                             const Word* const* nbrs, std::size_t n,
                             geom::Point<D> p0, std::int64_t xstride) {
  r.row(out, self, nbrs, n, p0, xstride);
};

/// The executor's compile-time gate for one (rule, D, V) combination.
template <class R, int D, class V>
inline constexpr bool has_row_kernel =
    std::is_same_v<V, Word> && RowKernel<R, D>;

// ---------------------------------------------------------------------
// soa_rule: the vectorized generic batch path. broadcast_rule
// (sep/guest.hpp) lifts a scalar rule into the LaneBatch form one lane
// at a time through a std::function; when the scalar rule has a row
// kernel, the same lift can instead run the kernel once across the 64
// contiguous lane words of each operand (xstride = 0: every lane sees
// the same lattice point). Values are bit-identical to broadcast_rule
// by the kernel contract; only the wall clock changes.
// ---------------------------------------------------------------------

/// BatchRule-compatible functor applying R's row kernel across lanes.
template <int D, class R>
struct SoaKernelRule {
  R kernel;

  LaneBatch operator()(const geom::Point<D>& p, const LaneBatch& self,
                       const BasicNeighbors<D, LaneBatch>& nbrs) const {
    LaneBatch out;
    if (enabled()) {
      const Word* lanes[geom::kMono<D>];
      for (int k = 0; k < geom::kMono<D>; ++k)
        lanes[k] = nbrs[static_cast<std::size_t>(k)].lane.data();
      kernel.row(out.lane.data(), self.lane.data(), lanes,
                 static_cast<std::size_t>(kLanes), p, 0);
      return out;
    }
    // Scalar fallback: the broadcast_rule per-lane loop, inlined on
    // the concrete kernel instead of dispatched through std::function.
    BasicNeighbors<D, Word> lane_nbrs{};
    for (int l = 0; l < kLanes; ++l) {
      for (int k = 0; k < geom::kMono<D>; ++k)
        lane_nbrs[static_cast<std::size_t>(k)] =
            nbrs[static_cast<std::size_t>(k)][l];
      out[l] = kernel(p, self[l], lane_nbrs);
    }
    return out;
  }
};

/// Lift a row-kernel rule into the SoA LaneBatch form (the vectorized
/// counterpart of broadcast_rule; requires RowKernel<R, D>).
template <int D, class R>
  requires RowKernel<R, D>
SoaKernelRule<D, R> soa_rule(R kernel) {
  return SoaKernelRule<D, R>{kernel};
}

}  // namespace bsmp::sep::simd
