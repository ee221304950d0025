// Region<D>: a convex lattice domain given as an axis-aligned box in
// monotone coordinates, intersected with the vertex set of a Stencil.
//
// This single type realizes all the domain families of the paper:
//   d=1: D(r) diamonds and their truncated versions (Fig. 1) are boxes
//        in (t+x, t-x);
//   d=2: octahedra P and tetrahedra W (Fig. 3) are boxes in
//        (t+x, t-x, t+y, t-y) — a box whose four intervals have equal
//        sums is an octahedron; half-overlapping sums give tetrahedra;
//   d=3: the analogous six-coordinate boxes (Section-6 conjecture).
//
// Because every dag arc is non-increasing in every monotone coordinate,
// the midpoint split() of a Region, ordered by how many upper halves a
// child occupies, is a topological partition in the sense of
// Definition 4 — reproducing the paper's 4-way diamond split, the
// 14-piece octahedron split and the 5-piece tetrahedron split exactly.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <limits>
#include <optional>
#include <vector>

#include "core/expect.hpp"
#include "core/logmath.hpp"
#include "geom/lattice.hpp"

namespace bsmp::geom {

template <int D>
class Region {
 public:
  static constexpr int K = kMono<D>;

  /// Box [lo_k, hi_k) in monotone coordinates over `stencil`'s vertex
  /// set. The stencil must outlive the region.
  Region(const Stencil<D>* stencil, std::array<int64_t, K> lo,
         std::array<int64_t, K> hi)
      : stencil_(stencil), lo_(lo), hi_(hi) {
    BSMP_REQUIRE(stencil != nullptr);
    for (int k = 0; k < K; ++k) BSMP_REQUIRE(lo_[k] <= hi_[k]);
  }

  const Stencil<D>& stencil() const { return *stencil_; }
  const std::array<int64_t, K>& lo() const { return lo_; }
  const std::array<int64_t, K>& hi() const { return hi_; }

  /// Largest box side (in monotone units).
  int64_t width() const {
    int64_t w = 0;
    for (int k = 0; k < K; ++k) w = std::max(w, hi_[k] - lo_[k]);
    return w;
  }

  bool in_box(const Point<D>& p) const {
    auto c = mono_coords<D>(p);
    for (int k = 0; k < K; ++k)
      if (c[k] < lo_[k] || c[k] >= hi_[k]) return false;
    return true;
  }

  bool contains(const Point<D>& p) const {
    return stencil_->is_vertex(p) && in_box(p);
  }

  /// Inclusive time range [t_min, t_max] implied by the box and the
  /// stencil horizon; empty ranges have t_min > t_max.
  std::pair<int64_t, int64_t> time_range() const {
    int64_t tmin = 0;
    int64_t tmax = stencil_->horizon - 1;
    for (int i = 0; i < D; ++i) {
      int64_t sum_lo = lo_[2 * i] + lo_[2 * i + 1];
      int64_t sum_hi = (hi_[2 * i] - 1) + (hi_[2 * i + 1] - 1);
      tmin = std::max(tmin, core::div_ceil(sum_lo, 2));
      tmax = std::min(tmax, core::div_floor(sum_hi, 2));
    }
    return {tmin, tmax};
  }

  /// Inclusive spatial range [x_min, x_max] in dimension i at time t.
  std::pair<int64_t, int64_t> x_range(int i, int64_t t) const {
    int64_t xmin = std::max<int64_t>(0, lo_[2 * i] - t);
    int64_t xmax = std::min(stencil_->extent[i] - 1, hi_[2 * i] - 1 - t);
    xmin = std::max(xmin, t - hi_[2 * i + 1] + 1);
    xmax = std::min(xmax, t - lo_[2 * i + 1]);
    return {xmin, xmax};
  }

  /// Number of lattice points in the region (exact).
  int64_t count() const {
    auto [tmin, tmax] = time_range();
    int64_t total = 0;
    for (int64_t t = tmin; t <= tmax; ++t) {
      int64_t rows = 1;
      for (int i = 0; i < D; ++i) {
        auto [a, b] = x_range(i, t);
        if (a > b) {
          rows = 0;
          break;
        }
        rows *= (b - a + 1);
      }
      total += rows;
    }
    return total;
  }

  /// First point in topological (t, then x lexicographic) order, or
  /// nullopt if the region is empty.
  std::optional<Point<D>> first_point() const {
    auto [tmin, tmax] = time_range();
    for (int64_t t = tmin; t <= tmax; ++t) {
      Point<D> p;
      p.t = t;
      bool ok = true;
      for (int i = 0; i < D; ++i) {
        auto [a, b] = x_range(i, t);
        if (a > b) {
          ok = false;
          break;
        }
        p.x[i] = a;
      }
      if (ok) return p;
    }
    return std::nullopt;
  }

  bool empty() const { return !first_point().has_value(); }

  /// Visit every point in topological order: t ascending, then x
  /// lexicographic. Within one time level no point depends on another,
  /// and all dependence arcs point to strictly smaller t, so this order
  /// is a valid execution order.
  template <class F>
  void for_each(F&& visit) const {
    auto [tmin, tmax] = time_range();
    for (int64_t t = tmin; t <= tmax; ++t) for_each_at_time(t, visit);
  }

  /// All points as a vector (small regions / tests only).
  std::vector<Point<D>> points() const {
    std::vector<Point<D>> v;
    for_each([&](const Point<D>& p) { v.push_back(p); });
    return v;
  }

  /// Midpoint split into at most 2^K children, in topological order
  /// (children sorted by the number of upper halves they occupy; equal
  /// counts are mutually independent). Empty children are dropped.
  /// Coordinates with a side of length < 2 are not split.
  std::vector<Region> split() const { return split_runs().children; }

  /// split()'s children together with their equal-uppers runs: the
  /// children [run_begin[r], run_begin[r + 1]) of run r < runs all take
  /// the upper half in the same number of monotone coordinates, so any
  /// two of them have a coordinate where one is upper and the other
  /// lower. Dag arcs never increase a monotone coordinate, so neither
  /// can feed the other: every run is an antichain whose order is
  /// semantically irrelevant — the independence each fork point of the
  /// recursion relies on.
  struct Split {
    std::vector<Region> children;
    std::array<std::size_t, K + 2> run_begin{};
    std::size_t runs = 0;

    /// Visit each run as its half-open child range [begin, end), in
    /// topological order.
    template <class F>
    void for_each_run(F&& f) const {
      for (std::size_t r = 0; r < runs; ++r) f(run_begin[r], run_begin[r + 1]);
    }
  };

  /// The midpoint split with its runs (see split() and Split): children
  /// are generated by upper-half count, each count's masks in ascending
  /// order — the stable sort of the masks by that count.
  Split split_runs() const {
    std::array<int64_t, K> mid;
    std::array<bool, K> splits;
    int nsplit = 0;
    for (int k = 0; k < K; ++k) {
      splits[k] = (hi_[k] - lo_[k]) >= 2;
      mid[k] = lo_[k] + (hi_[k] - lo_[k]) / 2;
      if (splits[k]) ++nsplit;
    }
    BSMP_REQUIRE_MSG(nsplit > 0, "cannot split a region of width 1");

    Split s;
    s.children.reserve(std::size_t{1} << nsplit);
    for (int uppers = 0; uppers <= nsplit; ++uppers) {
      const std::size_t begin = s.children.size();
      for (unsigned mask = 0; mask < (1u << K); ++mask) {
        if (std::popcount(mask) != uppers) continue;
        std::array<int64_t, K> clo = lo_, chi = hi_;
        bool valid = true;
        for (int k = 0; k < K && valid; ++k) {
          const bool up = (mask >> k) & 1u;
          if (!splits[k])
            valid = !up;  // no upper half for unsplit coordinates
          else if (up)
            clo[k] = mid[k];
          else
            chi[k] = mid[k];
        }
        if (!valid) continue;
        Region child(stencil_, clo, chi);
        if (!child.empty()) s.children.push_back(std::move(child));
      }
      if (s.children.size() > begin) s.run_begin[s.runs++] = begin;
    }
    s.run_begin[s.runs] = s.children.size();
    return s;
  }

  /// Visit every point of the preboundary Γin(U): vertices outside U
  /// that are predecessors of some vertex of U (Section 3). Exact,
  /// computed over the lower shell of depth reach(), one *row* (fixed
  /// t and outer coordinates, innermost x free) at a time: per row the
  /// qualifying points form a union of at most 2D+1 intervals (one per
  /// successor kind), assembled by interval arithmetic instead of a
  /// per-point successor scan — O(rows) setup, no allocation. Each
  /// point is visited exactly once, in the same (slab, t, x ascending)
  /// order the point-scan produced.
  template <class F>
  void preboundary_visit(F&& visit) const {
    preboundary_rows([&](int64_t t, std::array<int64_t, D>& x,
                         const IvSet& s) { visit_rowset(t, x, s, visit); });
  }

  /// The preboundary as a vector (materializing form of
  /// preboundary_visit).
  std::vector<Point<D>> preboundary() const {
    std::vector<Point<D>> out;
    preboundary_visit([&](const Point<D>& q) { out.push_back(q); });
    return out;
  }

  /// |Γin(U)| without materializing the vector: sums the per-row
  /// interval lengths of the same decomposition preboundary_visit
  /// walks, so equality with preboundary().size() is exact (asserted
  /// by the region property tests and by the executor's validation
  /// mode) — but no per-point work at all.
  int64_t preboundary_count() const {
    int64_t n = 0;
    preboundary_rows([&](int64_t, std::array<int64_t, D>&,
                         const IvSet& s) { n += s.total(); });
    return n;
  }

  /// O(1) out-set membership: q is in the out-set of U iff q is a
  /// vertex of U and some successor *position* of q is not a vertex of
  /// U (positions past the time horizon are not vertices, so the final
  /// rows of a computation always qualify). Equivalent to scanning
  /// outset() for q — every arc raises each monotone coordinate, so a
  /// point all of whose successors stay in the box is never collected
  /// by the shell scan either.
  bool in_outset(const Point<D>& q) const {
    if (!contains(q)) return false;
    std::array<Point<D>, K + 1> succ;
    int ns = stencil_->succ_positions(q, succ);
    for (int s = 0; s < ns; ++s)
      if (!contains(succ[s])) return true;
    return false;
  }

  /// Visit every point of the out-set: vertices of U with a successor
  /// *position* outside U (including positions past the time horizon).
  /// Each point is visited exactly once, in slab-scan order (the order
  /// outset() returns), assembled per row by the same interval
  /// arithmetic as preboundary_visit. No allocation.
  template <class F>
  void outset_visit(F&& visit) const {
    outset_rows([&](int64_t t, std::array<int64_t, D>& x, const IvSet& s) {
      visit_rowset(t, x, s, visit);
    });
  }

  /// Visit the out-set as maximal innermost-dimension runs: f(p, hi)
  /// stands for the points p, p+e_{D-1}, ..., up to x_{D-1} = hi.
  /// Flattening each run recovers outset_visit's exact element order;
  /// the executor stages a whole run with one contiguous slab insert.
  template <class F>
  void outset_spans(F&& f) const {
    outset_rows([&](int64_t t, std::array<int64_t, D>& x, const IvSet& s) {
      Point<D> p;
      p.t = t;
      for (int i = 0; i + 1 < D; ++i) p.x[i] = x[i];
      for (int i = 0; i < s.n; ++i) {
        p.x[D - 1] = s.iv[i].first;
        f(p, s.iv[i].second);
      }
    });
  }

  /// The out-set as a vector (materializing form of outset_visit).
  std::vector<Point<D>> outset() const {
    std::vector<Point<D>> out;
    outset_visit([&](const Point<D>& q) { out.push_back(q); });
    return out;
  }

  /// Out-set size without materializing the vector — sums the per-row
  /// interval lengths of the decomposition outset_visit walks, so
  /// equality with outset().size() is exact.
  int64_t outset_count() const {
    int64_t n = 0;
    outset_rows([&](int64_t, std::array<int64_t, D>&, const IvSet& s) {
      n += s.total();
    });
    return n;
  }

  /// Visit the points of this region's out-set that are NOT in
  /// `parent`'s out-set — i.e. child out-set points all of whose
  /// successor positions stay inside `parent`. Same row decomposition
  /// and visit order as outset_visit, with the parent's out-set
  /// predicate subtracted per row as intervals. The executor's
  /// retention filter (erase child staging no later sibling can read)
  /// is exactly this set.
  template <class F>
  void outset_visit_minus(const Region& parent, F&& visit) const {
    constexpr int64_t kInf = std::numeric_limits<int64_t>::max() / 4;
    IvSet ps;
    outset_rows([&](int64_t t, std::array<int64_t, D>& x, const IvSet& s) {
      row_succ_set(parent, t, x, -kInf, kInf, /*inside=*/false, ps);
      Point<D> p;
      p.t = t;
      for (int i = 0; i + 1 < D; ++i) p.x[i] = x[i];
      for (int i = 0; i < s.n; ++i) {
        int64_t cur = s.iv[i].first;
        const int64_t end = s.iv[i].second;
        for (int j = 0; j < ps.n && cur <= end; ++j) {
          if (ps.iv[j].second < cur) continue;
          if (ps.iv[j].first > end) break;
          for (int64_t xx = cur; xx < ps.iv[j].first; ++xx) {
            p.x[D - 1] = xx;
            visit(p);
          }
          cur = ps.iv[j].second + 1;
        }
        for (int64_t xx = cur; xx <= end; ++xx) {
          p.x[D - 1] = xx;
          visit(p);
        }
      }
    });
  }

  /// Visit every point of the region at one time level.
  template <class F>
  void for_each_at_time(int64_t t, F&& visit) const {
    if (t < 0 || t >= stencil_->horizon) return;
    Point<D> p;
    p.t = t;
    std::array<std::pair<int64_t, int64_t>, D> r;
    for (int i = 0; i < D; ++i) {
      r[i] = x_range(i, t);
      if (r[i].first > r[i].second) return;
    }
    if constexpr (D == 1) {
      for (int64_t x0 = r[0].first; x0 <= r[0].second; ++x0) {
        p.x[0] = x0;
        visit(p);
      }
    } else if constexpr (D == 2) {
      for (int64_t x0 = r[0].first; x0 <= r[0].second; ++x0) {
        p.x[0] = x0;
        for (int64_t x1 = r[1].first; x1 <= r[1].second; ++x1) {
          p.x[1] = x1;
          visit(p);
        }
      }
    } else {
      static_assert(D == 3);
      for (int64_t x0 = r[0].first; x0 <= r[0].second; ++x0) {
        p.x[0] = x0;
        for (int64_t x1 = r[1].first; x1 <= r[1].second; ++x1) {
          p.x[1] = x1;
          for (int64_t x2 = r[2].first; x2 <= r[2].second; ++x2) {
            p.x[2] = x2;
            visit(p);
          }
        }
      }
    }
  }

 private:
  // ---- Row-interval boundary machinery ---------------------------------
  //
  // For a fixed row (time t and the outer spatial coordinates fixed,
  // innermost x = x_{D-1} free), every monotone coordinate of a
  // successor position is linear in x with coefficient 0 or ±1, so both
  // "this successor kind exists" (stays on the mesh) and "it lands
  // inside a target box" are intervals in x. The boundary predicates
  // therefore collapse to per-row unions of at most 2(2D+1) intervals,
  // computed in O(1) per row instead of a per-point successor scan.
  // The row decomposition and the ascending-x interval walk reproduce
  // the point-scan visit order exactly, so the fast and scan forms are
  // interchangeable point for point (pinned by the region property
  // tests and by the executor's validation mode).

  // Inclusive intervals [lo, hi] over the innermost coordinate; empty
  // candidates are dropped on add(). Capacity covers the outside
  // predicate's worst case: two intervals per successor kind.
  struct IvSet {
    int n = 0;
    std::array<std::pair<int64_t, int64_t>, 2 * (2 * D + 1)> iv;
    void add(int64_t lo, int64_t hi) {
      if (lo <= hi) iv[n++] = {lo, hi};
    }
    // Sort by lower end and fuse overlapping/adjacent intervals so a
    // walk visits each point exactly once, in ascending order.
    // Insertion sort: n is tiny and usually already ordered.
    void normalize() {
      for (int i = 1; i < n; ++i) {
        auto v = iv[i];
        int j = i;
        for (; j > 0 && v < iv[j - 1]; --j) iv[j] = iv[j - 1];
        iv[j] = v;
      }
      int m = 0;
      for (int i = 0; i < n; ++i) {
        if (m > 0 && iv[i].first <= iv[m - 1].second + 1) {
          iv[m - 1].second = std::max(iv[m - 1].second, iv[i].second);
        } else {
          iv[m++] = iv[i];
        }
      }
      n = m;
    }
    int64_t total() const {
      int64_t s = 0;
      for (int i = 0; i < n; ++i) s += iv[i].second - iv[i].first + 1;
      return s;
    }
  };

  // The x-intervals of one successor kind over a row: where the
  // successor position exists ([elo, ehi]) and where it additionally
  // lands inside `reg` ([clo, chi], a subset). `dim` < D steps that
  // spatial coordinate by `step` at t+1; dim == D is the self lane at
  // t+m. All intervals are in source-x terms.
  static void succ_intervals(const Region& reg, int64_t t,
                             const std::array<int64_t, D>& xout, int dim,
                             int step, int64_t& elo, int64_t& ehi,
                             int64_t& clo, int64_t& chi) {
    const Stencil<D>& st = *reg.stencil_;
    constexpr int64_t kInf = std::numeric_limits<int64_t>::max() / 4;
    elo = -kInf;
    ehi = kInf;
    const int64_t tp = (dim == D) ? t + st.m : t + 1;
    const int64_t sx = (dim == D - 1) ? step : 0;  // innermost shift
    // Existence: a stepped spatial coordinate must stay on the mesh
    // (succ_positions emits no off-mesh spatial successors).
    if (dim >= 0 && dim < D - 1) {
      int64_t xj = xout[dim] + step;
      if (xj < 0 || xj >= st.extent[dim]) {
        ehi = elo - 1;
        clo = 1;
        chi = 0;
        return;
      }
    } else if (dim == D - 1) {
      elo = std::max(elo, int64_t{0} - sx);
      ehi = std::min(ehi, st.extent[D - 1] - 1 - sx);
    }
    clo = elo;
    chi = ehi;
    // Containment in reg: the successor must be a vertex...
    if (tp >= st.horizon) {
      clo = 1;
      chi = 0;
      return;
    }
    // ...on the mesh in the outer dimensions (the inner one is covered
    // by the existence bounds above, which clo/chi inherit)...
    for (int i = 0; i + 1 < D; ++i) {
      int64_t xi = xout[i] + (i == dim ? step : 0);
      if (xi < 0 || xi >= st.extent[i]) {
        clo = 1;
        chi = 0;
        return;
      }
      // ...and inside reg's box: row-constant coordinates first.
      if (tp + xi < reg.lo_[2 * i] || tp + xi >= reg.hi_[2 * i] ||
          tp - xi < reg.lo_[2 * i + 1] || tp - xi >= reg.hi_[2 * i + 1]) {
        clo = 1;
        chi = 0;
        return;
      }
    }
    // Innermost pair of monotone coordinates, as bounds on x:
    // lo <= tp + (x+sx) < hi  and  lo' <= tp - (x+sx) < hi'.
    clo = std::max(clo, reg.lo_[K - 2] - tp - sx);
    chi = std::min(chi, reg.hi_[K - 2] - 1 - tp - sx);
    clo = std::max(clo, tp - reg.hi_[K - 1] + 1 - sx);
    chi = std::min(chi, tp - reg.lo_[K - 1] - sx);
  }

  // The visit set of one row, clipped to row bounds [a, b]: the x whose
  // point has some successor kind that exists and lands inside `reg`
  // (inside = true; the preboundary predicate) or exists and lands
  // outside `reg` (inside = false; the out-set predicate).
  static void row_succ_set(const Region& reg, int64_t t,
                           const std::array<int64_t, D>& xout, int64_t a,
                           int64_t b, bool inside, IvSet& out) {
    out.n = 0;
    auto one = [&](int dim, int step) {
      int64_t elo, ehi, clo, chi;
      succ_intervals(reg, t, xout, dim, step, elo, ehi, clo, chi);
      if (inside) {
        out.add(std::max(clo, a), std::min(chi, b));
      } else if (clo > chi) {
        out.add(std::max(elo, a), std::min(ehi, b));
      } else {
        out.add(std::max(elo, a), std::min({ehi, clo - 1, b}));
        out.add(std::max({elo, chi + 1, a}), std::min(ehi, b));
      }
    };
    for (int i = 0; i < D; ++i) {
      one(i, -1);
      one(i, +1);
    }
    one(D, 0);  // self lane
    out.normalize();
  }

  // Iterate the rows of region S at time t (outer coordinates
  // lexicographic), yielding inclusive innermost bounds — the row
  // decomposition of for_each_at_time.
  template <class RowF>
  static void rows_at(const Region& S, int64_t t, RowF&& f) {
    if (t < 0 || t >= S.stencil_->horizon) return;
    std::array<std::pair<int64_t, int64_t>, D> r;
    for (int i = 0; i < D; ++i) {
      r[i] = S.x_range(i, t);
      if (r[i].first > r[i].second) return;
    }
    std::array<int64_t, D> x{};
    if constexpr (D == 1) {
      f(t, x, r[0].first, r[0].second);
    } else if constexpr (D == 2) {
      for (int64_t x0 = r[0].first; x0 <= r[0].second; ++x0) {
        x[0] = x0;
        f(t, x, r[1].first, r[1].second);
      }
    } else {
      static_assert(D == 3);
      for (int64_t x0 = r[0].first; x0 <= r[0].second; ++x0) {
        x[0] = x0;
        for (int64_t x1 = r[1].first; x1 <= r[1].second; ++x1) {
          x[1] = x1;
          f(t, x, r[2].first, r[2].second);
        }
      }
    }
  }

  // All rows of S in for_each order: t ascending, then rows_at.
  template <class RowF>
  static void rows_of(const Region& S, RowF&& f) {
    auto [tmin, tmax] = S.time_range();
    for (int64_t t = tmin; t <= tmax; ++t) rows_at(S, t, f);
  }

  // Walk a normalized row set, visiting points in ascending x.
  template <class F>
  static void visit_rowset(int64_t t, const std::array<int64_t, D>& x,
                           const IvSet& s, F&& visit) {
    Point<D> p;
    p.t = t;
    for (int i = 0; i + 1 < D; ++i) p.x[i] = x[i];
    for (int i = 0; i < s.n; ++i) {
      for (int64_t xx = s.iv[i].first; xx <= s.iv[i].second; ++xx) {
        p.x[D - 1] = xx;
        visit(p);
      }
    }
  }

  // Drive the preboundary slab decomposition, yielding each nonempty
  // row set (already normalized).
  template <class RowSetF>
  void preboundary_rows(RowSetF&& f) const {
    const int64_t R = stencil_->reach();
    IvSet s;
    for (int k = 0; k < K; ++k) {
      // Slab k: coordinate k in [lo_k - R, lo_k); coordinates j < k
      // inside the box (so each shell point appears in exactly one
      // slab); coordinates j > k anywhere a predecessor can be.
      std::array<int64_t, K> slo = lo_, shi = hi_;
      slo[k] = lo_[k] - R;
      shi[k] = lo_[k];
      for (int j = k + 1; j < K; ++j) slo[j] = lo_[j] - R;
      Region slab(stencil_, slo, shi);
      rows_of(slab, [&](int64_t t, std::array<int64_t, D>& x, int64_t a,
                        int64_t b) {
        row_succ_set(*this, t, x, a, b, /*inside=*/true, s);
        if (s.n > 0) f(t, x, s);
      });
    }
  }

  // Drive the out-set decomposition — upper shell slabs, then horizon
  // rows minus the upper-slab overlap — yielding each nonempty row set.
  template <class RowSetF>
  void outset_rows(RowSetF&& f) const {
    const int64_t R = stencil_->reach();
    IvSet s;
    // Upper shell slabs (successors that leave the box).
    for (int k = 0; k < K; ++k) {
      std::array<int64_t, K> slo = lo_, shi = hi_;
      slo[k] = std::max(lo_[k], hi_[k] - R);
      for (int j = 0; j < k; ++j) shi[j] = std::max(lo_[j], hi_[j] - R);
      Region slab(stencil_, slo, shi);
      rows_of(slab, [&](int64_t t, std::array<int64_t, D>& x, int64_t a,
                        int64_t b) {
        row_succ_set(*this, t, x, a, b, /*inside=*/false, s);
        if (s.n > 0) f(t, x, s);
      });
    }
    // Horizon rows (successors that leave the computation in time):
    // rows with t >= horizon - m have their self-lane successor past
    // the horizon. Skip the part already collected by an upper slab:
    // a point lies in one iff some monotone coordinate c_k >= hi_k - R,
    // which over a row is a row-constant test per outer coordinate
    // plus two half-lines in the innermost x.
    int64_t t_top = stencil_->horizon - stencil_->m;
    auto [tmin, tmax] = time_range();
    for (int64_t t = std::max(tmin, t_top); t <= tmax; ++t) {
      rows_at(*this, t, [&](int64_t tt, std::array<int64_t, D>& x,
                            int64_t a, int64_t b) {
        for (int i = 0; i + 1 < D; ++i) {
          if (tt + x[i] >= hi_[2 * i] - R || tt - x[i] >= hi_[2 * i + 1] - R)
            return;  // the whole row lies in an upper slab
        }
        // Keep x with tt + x < hi_[K-2] - R and tt - x < hi_[K-1] - R.
        int64_t ka = std::max(a, tt - (hi_[K - 1] - R) + 1);
        int64_t kb = std::min(b, hi_[K - 2] - R - 1 - tt);
        if (ka > kb) return;
        row_succ_set(*this, tt, x, ka, kb, /*inside=*/false, s);
        if (s.n > 0) f(tt, x, s);
      });
    }
  }

  const Stencil<D>* stencil_;
  std::array<int64_t, K> lo_, hi_;
};

}  // namespace bsmp::geom
