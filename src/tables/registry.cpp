#include "tables/emitters.hpp"

#include "core/expect.hpp"

namespace bsmp::tables {

const std::vector<Emitter>& all_emitters() {
  static const std::vector<Emitter> kEmitters{
      {"e1", "intro example: matmul speedups", &e1_tables},
      {"e2", "Proposition 1: the naive simulation", &e2_tables},
      {"e3", "Theorem 2: D&C uniprocessor, d=1", &e3_tables},
      {"e4", "Theorem 3: executable diamonds, m sweep", &e4_tables},
      {"e5", "Theorem 4: two-regime multiprocessor", &e5_tables},
      {"e6", "Section 4.2: A(s) strip-width ablation", &e6_tables},
      {"e7", "Theorem 5: D&C uniprocessor, d=2", &e7_tables},
      {"e8", "Theorem 1 at d=2: multiprocessor mesh", &e8_tables},
      {"e9", "Figures 1-4: decomposition geometry", &e9_tables},
      {"e10", "baselines and Section-6 extensions", &e10_tables},
      // Derived artifacts (after the ten paper artifacts, which keep
      // their positional indices): the dense Section-4.2 ablation and
      // the engine-backed advisor calibration.
      {"e6d", "Section 4.2: dense every-s A(s) ablation + fit", &e6_dense_tables},
      {"cal", "advisor calibration through the sweep engine", &calibration_tables},
      {"hot", "executor hot path: dense staging (scalar, SIMD, validated)",
       &hot_tables},
      {"ens", "64-scenario bit-sliced ensembles in one charged pass",
       &ensemble_tables},
  };
  return kEmitters;
}

const Emitter& find_emitter(std::string_view name) {
  for (const auto& e : all_emitters())
    if (name == e.name) return e;
  BSMP_REQUIRE_MSG(false, "unknown emitter '" << name << "'");
}

}  // namespace bsmp::tables
