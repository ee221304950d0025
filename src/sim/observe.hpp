// Guest-visible observation points: which dag vertices constitute "the
// result" of a T-step computation, and helpers to compare simulator
// outputs for functional equivalence.
#pragma once

#include <vector>

#include "core/logmath.hpp"
#include "geom/lattice.hpp"
#include "sep/executor.hpp"

namespace bsmp::sim {

/// The final points of a computation: for every node x and every memory
/// cell j in [0, m), the vertex that wrote cell j last, i.e. the
/// largest t < horizon with t ≡ j (mod m). These are exactly the
/// guest's memory contents when it halts.
template <int D>
std::vector<geom::Point<D>> final_points(const geom::Stencil<D>& st) {
  std::vector<geom::Point<D>> out;
  std::vector<geom::Point<D>> stack;
  // Enumerate nodes recursively over dimensions.
  geom::Point<D> p;
  auto emit_times = [&](const geom::Point<D>& node) {
    for (int64_t j = 0; j < st.m; ++j) {
      // Largest t < horizon with t ≡ j (mod m); cells never written
      // within the horizon (j >= horizon when m > T) are skipped —
      // they still hold their input value.
      int64_t t =
          st.horizon - 1 - core::mod_floor(st.horizon - 1 - j, st.m);
      if (t < 0) continue;
      geom::Point<D> q = node;
      q.t = t;
      out.push_back(q);
    }
  };
  if constexpr (D == 1) {
    for (int64_t x = 0; x < st.extent[0]; ++x) {
      p.x[0] = x;
      emit_times(p);
    }
  } else if constexpr (D == 2) {
    for (int64_t x = 0; x < st.extent[0]; ++x) {
      p.x[0] = x;
      for (int64_t y = 0; y < st.extent[1]; ++y) {
        p.x[1] = y;
        emit_times(p);
      }
    }
  } else {
    static_assert(D == 3);
    for (int64_t x = 0; x < st.extent[0]; ++x) {
      p.x[0] = x;
      for (int64_t y = 0; y < st.extent[1]; ++y) {
        p.x[1] = y;
        for (int64_t z = 0; z < st.extent[2]; ++z) {
          p.x[2] = z;
          emit_times(p);
        }
      }
    }
  }
  return out;
}

/// Extract the final points from a staging store into a fresh map;
/// asserts every final point is present.
template <int D, class V>
sep::BasicValueMap<D, V> extract_final(const geom::Stencil<D>& st,
                                       const sep::StagingStore<D, V>& staging) {
  sep::BasicValueMap<D, V> out;
  for (const auto& q : final_points<D>(st)) {
    const V* v = staging.find(q);
    BSMP_ASSERT_MSG(v != nullptr, "final value missing at t=" << q.t);
    out.emplace(q, *v);
  }
  return out;
}

/// The same filter over a map of computed values (a schedule run's
/// sched::RunResult::values, say).
template <int D, class V>
sep::BasicValueMap<D, V> extract_final(const geom::Stencil<D>& st,
                                       const sep::BasicValueMap<D, V>& values) {
  sep::BasicValueMap<D, V> out;
  for (const auto& q : final_points<D>(st)) {
    auto it = values.find(q);
    BSMP_ASSERT_MSG(it != values.end(), "final value missing at t=" << q.t);
    out.emplace(q, it->second);
  }
  return out;
}

/// True iff two final-value maps agree exactly.
template <int D, class V>
bool same_values(const sep::BasicValueMap<D, V>& a,
                 const sep::BasicValueMap<D, V>& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [k, v] : a) {
    auto it = b.find(k);
    if (it == b.end() || it->second != v) return false;
  }
  return true;
}

}  // namespace bsmp::sim
