// The topological-separator executor: the concrete realization of
// Proposition 2 and Proposition 3.
//
// execute(U, staging) runs every vertex of the convex domain U under
// the contract:
//   * on entry, `staging` holds the values of Γin(U) (the topological-
//     partition property of Definition 4; asserted per point when
//     validation mode is on, and caught by the leaf operand check
//     otherwise);
//   * on return, `staging` additionally holds the values of the
//     out-set of U, and U's interior values have been removed.
//
// Cost model (charged into a CostLedger):
//   * recursion level on domain U: copying the preboundary of each
//     child in and its out-set back out costs 2 f(S(U)) per word
//     (Prop. 2 steps 1 and 3), where S(U) is the space bound of the
//     recurrence S(U) <= max_i S(Ui) + P(U);
//   * leaf (width <= leaf_width): each vertex is executed naively —
//     one unit of compute plus one access per operand and one for the
//     result, each charged f(S(leaf)).
// Setting leaf_width = m realizes Theorem 3's "executable diamonds"
// D(m) executed by naive simulation at cost Θ(m^3); leaf_width = 1 is
// the pure divide-and-conquer of Theorems 2 and 5.
//
// Hot path (see doc/ENGINE.md "Hot path" and doc/PERF.md): recursion
// levels charge from Region::preboundary_count()/outset_count()
// without materializing point vectors; leaves run in a dense window
// (sep/staging.hpp LeafWindow: per-time-level prefix offset + row-
// major x offset) instead of a hash map, with per-leaf batched
// kCompute and a bit-exact kLocalAccess charge stream; staging is a
// StagingStore<D, V> with O(1) dense addressing. All charged totals
// are bit-identical to the materializing implementation;
// ExecutorConfig::validate re-enables the per-level materialization
// and asserts it changes nothing.
//
// One leaf loop (see doc/ENGINE.md "SIMD kernels"): every leaf, for
// every D, value type and rule, runs one row walk. Each innermost row
// splits into edge cells (mesh boundary, operands in staging), run
// one vertex at a time, and at most one interior span — the
// consecutive cells whose operands all sit in the dense window —
// evaluated over contiguous operand rows: by one RowKernel call
// (sep/simd.hpp) when the rule passed to execute_with_rule has one
// and simd::enabled(), else by one rule call per cell. Charging is
// count-based and per cell in visit order, so values, the CostLedger
// stream, charged totals, peak staging and every emitted table are
// byte-identical however a span is evaluated.
//
// Parallel recursion (see doc/ENGINE.md "Task layer"): when
// ExecutorConfig::parallel_grain > 0 and sep::can_fork(), recursion
// nodes of monotone width above the grain fork each multi-child
// equal-uppers run of Region::split_runs() (an antichain of the
// recursion) through sep::fork_join (sep/fork.hpp): every child runs
// against a private StagingShard and records its charges in a
// core::ChargeLog, and the join replays logs and merges shards in
// canonical child order, so every charged double, the peak-staging
// high-water mark, slab-allocation counts, and all final values are
// bit-identical to the serial execution at any thread count.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "core/cost.hpp"
#include "core/expect.hpp"
#include "engine/arena.hpp"
#include "engine/task.hpp"
#include "engine/trace.hpp"
#include "geom/region.hpp"
#include "hram/access_fn.hpp"
#include "sep/fork.hpp"
#include "sep/guest.hpp"
#include "sep/simd.hpp"
#include "sep/staging.hpp"

namespace bsmp::sep {

struct ExecutorConfig {
  /// Domains of monotone width <= leaf_width are executed naively.
  int64_t leaf_width = 1;
  /// Access function of the executing node's H-RAM.
  hram::AccessFn f = hram::AccessFn::unit();
  /// Constant of the space bound S(width) = space_const * min(reach,
  /// width) * width^D + 8; tests verify the executor's live footprint
  /// stays within it. Measured peak footprints converge to ~4x
  /// reach*width^D; the paper's own recurrence constant σ0 =
  /// q c δ^γ / (1 - δ^γ) evaluates to ~11 for the d=1 diamond.
  double space_const = 6.0;
  /// Constant of the *leaf* working-set bound. A leaf ("executable
  /// diamond", Theorem 3) holds only its own points and preboundary —
  /// no recursion-path staging — so its accesses are charged at a
  /// tighter address scale than the recursion levels'.
  double leaf_space_const = 2.0;
  /// Re-materialize preboundary / out-set vectors at every recursion
  /// level and assert the topological-partition property and the
  /// count == size equalities. Defaults from sep::validation_mode()
  /// (the BSMP_VALIDATE environment variable).
  bool validate = validation_mode();
  /// Monotone width above which recursion nodes fork their equal-uppers
  /// child runs into the ambient engine::TaskScheduler (see the header
  /// comment). 0 disables forking; domains at or below the grain — and
  /// all leaves — run serially on the calling thread. Execution is
  /// bit-identical either way. Defaults from
  /// sep::default_parallel_grain() (BSMP_PARALLEL_GRAIN).
  int64_t parallel_grain = default_parallel_grain();
  /// Which mechanism this executor's forks are attributed to in the
  /// per-phase task counters (metrics-v2 `tasks.phases`). Standalone
  /// executors are "executor-leaf"; the multiproc simulator retags its
  /// embedded executor as regime2-subtile.
  engine::ForkPhase fork_phase = engine::ForkPhase::kExecutorLeaf;
};

template <int D, class V = Word>
class Executor {
 public:
  using value_type = V;

  Executor(const BasicGuest<D, V>* guest, ExecutorConfig cfg)
      : guest_(guest), cfg_(cfg) {
    BSMP_REQUIRE(guest != nullptr);
    guest_->validate();
    BSMP_REQUIRE(cfg_.leaf_width >= 1);
  }

  /// Vertex and staging-footprint deltas of one execution, relative to
  /// the staging store's state on entry: `net` is the change in live
  /// values, `peak` the high-water mark of that change. Returned by
  /// execute_delta() for the caller to absorb() after a parallel join.
  struct ExecDelta {
    std::int64_t vertices = 0;
    std::int64_t net = 0;
    std::int64_t peak = 0;
  };

  /// Rebind the ledger charges are recorded into (per-processor ledgers
  /// in the multiprocessor simulators).
  void set_ledger(core::CostLedger* ledger) { ledger_ = ledger; }

  /// Space bound S for a domain of the given monotone width, in words:
  /// S(w) = space_const * min(reach, w) * w^D + 64. The min matters when
  /// the domain is shorter than the memory depth m: then every vertex's
  /// self-lane predecessor lies below the domain, the preboundary is
  /// Θ(w^(D+1)) and so is the working set — not Θ(m * w^D).
  double space_bound(int64_t width) const {
    double w = static_cast<double>(width);
    double depth = static_cast<double>(
        std::min<int64_t>(guest_->stencil.reach(), width));
    double s = cfg_.space_const * depth;
    for (int i = 0; i < D; ++i) s *= w;
    return s + 8.0;
  }

  /// Working-set bound of a naively-executed leaf of the given width:
  /// its points plus preboundary, with no recursion-path staging.
  double leaf_space_bound(int64_t width) const {
    double w = static_cast<double>(width);
    double depth = static_cast<double>(
        std::min<int64_t>(guest_->stencil.reach(), width));
    double s = cfg_.leaf_space_const * depth;
    for (int i = 0; i < D; ++i) s *= w;
    return s + 8.0;
  }

  /// Execute domain U (see the contract above): afterwards the out-set
  /// values of U are in `staging` (enumerable via U.outset() /
  /// U.outset_visit()).
  void execute(const geom::Region<D>& U, StagingStore<D, V>& staging) {
    execute_with_rule(U, staging, guest_->rule);
  }

  /// Fast path: identical to execute(), with the leaf loop specialized
  /// for a concrete `rule` callable (no std::function dispatch per
  /// vertex). `rule` must compute the same function as guest->rule.
  template <class RuleFn>
  void execute_with_rule(const geom::Region<D>& U,
                         StagingStore<D, V>& staging, const RuleFn& rule) {
    BSMP_REQUIRE(ledger_ != nullptr);
    const std::size_t base = staging.size();
    // The executor's persistent leaf scratch serves the root context,
    // so steady-state serial execution stays allocation-free.
    Ctx<StagingStore<D, V>, core::CostLedger> cx{&staging, ledger_, &leaf_};
    exec_rec(U, cx, rule);
    absorb(cx.delta(), base);
  }

  /// Concurrency-safe execution for forked callers: run U with charges
  /// recorded into `log` (instead of the bound ledger) and return the
  /// deltas for the caller to absorb() after joining. Mutates only
  /// `staging` and `log` — never the executor — so concurrent calls on
  /// one Executor are safe provided their stores are disjoint (e.g.
  /// per-fork StagingShards over a common base). `Store` is
  /// StagingStore<D, V> or StagingShard<D, V>.
  template <class Store, class RuleFn>
    requires std::is_same_v<Store, StagingStore<D, V>> ||
             std::is_same_v<Store, StagingShard<D, V>>
  ExecDelta execute_delta(const geom::Region<D>& U, Store& staging,
                          core::ChargeLog& log, const RuleFn& rule) const {
    // Leaf scratch from the calling thread's pool: forked callers
    // (subtile bodies, executor child runs) land here once per fork,
    // and the checkout makes their steady state allocation-free too.
    engine::Scratch<LeafScratch> scratch;
    Ctx<Store, core::ChargeLog> cx{&staging, &log, &*scratch};
    exec_rec(U, cx, rule);
    return cx.delta();
  }

  template <class Store>
  ExecDelta execute_delta(const geom::Region<D>& U, Store& staging,
                          core::ChargeLog& log) const {
    return execute_delta(U, staging, log, guest_->rule);
  }

  /// Fold an execute_delta() result into the executor's counters.
  /// `base` is the live size the delta's execution started from (in
  /// serial-equivalent order), so base + peak is the absolute
  /// high-water mark the serial execution would have observed.
  void absorb(const ExecDelta& d, std::size_t base) {
    vertices_ += d.vertices;
    const std::size_t abs_peak = base + static_cast<std::size_t>(d.peak);
    if (abs_peak > peak_staging_) peak_staging_ = abs_peak;
  }

  /// Total dag vertices executed so far.
  std::int64_t vertices_executed() const { return vertices_; }

  /// High-water mark of the staging store (live values), in words — the
  /// concrete footprint compared against space_bound in tests.
  std::size_t peak_staging() const { return peak_staging_; }

 private:
  /// The leaf scratch triple (dense window values + per-level prefix
  /// offsets + the spans' gathered self-operand row), reused across one
  /// context's leaves. The root context of execute() borrows the
  /// executor's own; forked executions check one out of the
  /// engine::Scratch<T> pool of the thread they run on. clear() keeps
  /// everything: LeafWindow sizes the vectors and fully writes the live
  /// prefix before any read, so stale contents are unreachable and
  /// dropping capacity is the only thing reset could cost.
  struct LeafScratch {
    std::vector<V> vals;
    std::vector<std::size_t> off;
    std::vector<V> self_row;

    void clear() {}
  };

  /// Per-execution mutable state. The recursion never touches executor
  /// members directly; everything it mutates lives here, so forked
  /// subtrees get private contexts and the executor itself stays
  /// read-only during execution. Staging-footprint accounting is
  /// *relative* (cur = net live delta since context entry, peak = its
  /// high-water mark at the serial code's sample points), which makes
  /// it exact under sharding: a join adds the parent's cur to the
  /// child's peak, reproducing the absolute sizes a serial execution
  /// would have sampled.
  template <class Store, class Ledger>
  struct Ctx {
    Store* staging = nullptr;
    Ledger* ledger = nullptr;
    LeafScratch* leaf = nullptr;
    std::int64_t vertices = 0;
    std::int64_t cur = 0;
    std::int64_t peak = 0;
    // Recursion depth below the execute() root, carried into forked
    // sub-contexts so the sep-region trace spans label levels
    // identically at any thread count.
    int depth = 0;
    // Out-set size of the most recently executed leaf: the staging
    // pass at the end of execute_leaf walks exactly the set
    // outset_count() would re-derive, so exec_child reuses its tally
    // for the step-3 charge instead of a second boundary pass.
    std::int64_t leaf_out = 0;

    void note() {
      if (cur > peak) peak = cur;
    }
    ExecDelta delta() const { return ExecDelta{vertices, cur, peak}; }
    void insert(const geom::Point<D>& q, const V& v) {
      if (staging->insert(q, v)) ++cur;
    }
    void insert_span(const geom::Point<D>& q, const V* src, std::size_t n) {
      cur += staging->insert_span(q, src, n);
    }
    void erase(const geom::Point<D>& q) {
      if (staging->erase(q)) --cur;
    }
  };

  template <class Store, class Ledger, class RuleFn>
  void exec_rec(const geom::Region<D>& U, Ctx<Store, Ledger>& cx,
                const RuleFn& rule) const {
    if (U.width() <= cfg_.leaf_width) {
      engine::trace::Span leaf_span(engine::trace::Cat::kSepRegion,
                                    "sep-leaf", U.width(), cx.depth);
      execute_leaf(U, cx, rule);
      cx.note();
      return;
    }

    engine::trace::Span region_span(engine::trace::Cat::kSepRegion,
                                    "sep-region", U.width(), cx.depth);
    const core::Cost fS =
        cfg_.f(static_cast<std::uint64_t>(space_bound(U.width())));
    const typename geom::Region<D>::Split sp = U.split_runs();
    const bool fork = cfg_.parallel_grain > 0 &&
                      U.width() > cfg_.parallel_grain && can_fork();
    ++cx.depth;
    sp.for_each_run([&](std::size_t i, std::size_t j) {
      // A singleton run may feed later children: it runs in place so
      // they see its out-set in cx's store.
      if (fork && j - i > 1) {
        exec_run_forked(U, &sp.children[i], j - i, fS, cx, rule);
      } else {
        for (std::size_t k = i; k < j; ++k)
          exec_child(U, sp.children[k], fS, cx, rule);
      }
    });
    --cx.depth;

    // Retain only U's out-set; everything else produced inside U is
    // dead (its successors are all inside U and already executed).
    // The produced set is exactly the union of the children's
    // out-sets; outset_visit_minus subtracts U's out-set predicate
    // per row as intervals, so the filter costs O(rows), not a
    // successor scan per staged point.
    for (const geom::Region<D>& child : sp.children) {
      child.outset_visit_minus(U, [&](const geom::Point<D>& q) {
        cx.erase(q);
      });
    }
    if (cfg_.validate) validate_outset(U, *cx.staging);
    cx.note();
  }

  /// One child of a recursion node: Proposition 2's three steps.
  template <class Store, class Ledger, class RuleFn>
  void exec_child(const geom::Region<D>& U, const geom::Region<D>& child,
                  core::Cost fS, Ctx<Store, Ledger>& cx,
                  const RuleFn& rule) const {
    // Step 1: bring the child's preboundary into the child's working
    // space. Presence in staging is exactly the topological-partition
    // property.
    const std::int64_t gin = child.preboundary_count();
    if (cfg_.validate)
      validate_preboundary(child, *cx.staging, U.width(), gin);
    cx.ledger->charge(core::CostKind::kBlockMove,
                      2.0 * fS * static_cast<core::Cost>(gin),
                      static_cast<std::uint64_t>(gin));

    // Step 2: execute the child.
    exec_rec(child, cx, rule);

    // Step 3: save the child's out-set for later children / parent.
    // Leaf children just walked their out-set to stage results;
    // their tally is the same value outset_count() recomputes.
    const std::int64_t child_out = child.width() <= cfg_.leaf_width
                                       ? cx.leaf_out
                                       : child.outset_count();
    if (cfg_.validate) validate_child_outset(child, child_out);
    cx.ledger->charge(core::CostKind::kBlockMove,
                      2.0 * fS * static_cast<core::Cost>(child_out),
                      static_cast<std::uint64_t>(child_out));
  }

  /// A fork's record: the child's charges and its context deltas.
  struct ForkRecord {
    core::ChargeLog log;
    ExecDelta delta;

    void clear() {
      log.clear();
      delta = ExecDelta{};
    }
  };

  /// Execute the n children of one equal-uppers run (an antichain, see
  /// Region::Split) through sep::fork_join: each child runs Prop. 2's
  /// steps against its own shard over cx's store, charging a private
  /// ChargeLog, and the join replays the logs into cx's ledger and
  /// folds the deltas into cx in canonical child order.
  template <class Store, class Ledger, class RuleFn>
  void exec_run_forked(const geom::Region<D>& U, const geom::Region<D>* run,
                       std::size_t n, core::Cost fS, Ctx<Store, Ledger>& cx,
                       const RuleFn& rule) const {
    using Shard = StagingShard<D, V>;
    const int depth = cx.depth;
    fork_join<D, V, ForkRecord>(
        cfg_.fork_phase, *cx.staging, n,
        [&](std::size_t k, Shard& shard, ForkRecord& rec) {
          engine::Scratch<LeafScratch> leaf;  // the running thread's pool
          Ctx<Shard, core::ChargeLog> sub{&shard, &rec.log, &*leaf};
          sub.depth = depth;
          exec_child(U, run[k], fS, sub, rule);
          rec.delta = sub.delta();
        },
        [&cx](ForkRecord& rec) {
          rec.log.replay_into(*cx.ledger);
          if (cx.cur + rec.delta.peak > cx.peak)
            cx.peak = cx.cur + rec.delta.peak;
          cx.cur += rec.delta.net;
          cx.vertices += rec.delta.vertices;
        });
  }

  template <class Store>
  void validate_preboundary(const geom::Region<D>& child,
                            const Store& staging, std::int64_t width,
                            std::int64_t count) const {
    std::vector<geom::Point<D>> gin = child.preboundary();
    BSMP_ASSERT_MSG(static_cast<std::int64_t>(gin.size()) == count,
                    "preboundary_count != |preboundary()|");
    for (const auto& q : gin) {
      BSMP_ASSERT_MSG(staging.find(q) != nullptr,
                      "preboundary value missing: topological partition "
                      "violated at width "
                          << width);
    }
  }

  void validate_child_outset(const geom::Region<D>& child,
                             std::int64_t count) const {
    BSMP_ASSERT_MSG(
        static_cast<std::int64_t>(child.outset().size()) == count,
        "outset_count != |outset()|");
  }

  template <class Store>
  void validate_outset(const geom::Region<D>& U, const Store& staging) const {
    std::vector<geom::Point<D>> out = U.outset();
    for (const auto& q : out) {
      BSMP_ASSERT_MSG(U.in_outset(q), "in_outset rejects an outset() point");
      BSMP_ASSERT_MSG(staging.find(q) != nullptr,
                      "out-set value missing");
    }
  }

  /// Rows shorter than this, and interior spans shorter than this, run
  /// through the edge path: a span evaluation (operand pointers, maybe
  /// a staged self row) is not worth fewer cells of work.
  static constexpr std::int64_t kMinSpan = 2;

  /// The naive execution of one leaf (Theorem 3's executable diamond)
  /// into its dense window, in Region::for_each order: level by level,
  /// an odometer over the outer coordinates, and each innermost row
  /// split into edge cells and at most one *interior span* — the
  /// consecutive cells whose 2D neighbor operands all sit in the
  /// window's level t-1. Edge cells (t = 0, mesh boundary, operands in
  /// staging) run `edge`; each span goes to eval_span over contiguous
  /// operand rows. Charges are emitted per cell in visit order, and an
  /// interior cell always has 2D+1 operands, so the kLocalAccess stream
  /// does not depend on how a cell was evaluated.
  template <class Store, class Ledger, class RuleFn>
  void execute_leaf(const geom::Region<D>& U, Ctx<Store, Ledger>& cx,
                    const RuleFn& rule) const {
    const geom::Stencil<D>& st = guest_->stencil;
    const core::Cost f_leaf =
        cfg_.f(static_cast<std::uint64_t>(leaf_space_bound(U.width())));
    LeafWindow<D, V> win(U, cx.leaf->vals, cx.leaf->off);
    const std::int64_t tmin = win.tmin();

    auto lookup = [&](const geom::Point<D>& q) -> const V& {
      // q is a vertex; inside the leaf box it was already executed
      // (topological order), so its value sits in the dense window.
      if (q.t >= tmin && U.in_box(q)) return *win.row(q.t, q.x);
      const V* v = cx.staging->find(q);
      BSMP_ASSERT_MSG(v != nullptr,
                      "operand missing at leaf: topological partition or "
                      "out-set computation is wrong");
      return *v;
    };

    auto la = cx.ledger->stream(core::CostKind::kLocalAccess);
    std::uint64_t la_events = 0;

    // One edge cell: the naive per-vertex execution (Definition 3) and
    // its charge — one read per operand plus one result write, each
    // f(S(leaf)), streamed so the per-vertex addition order (and hence
    // the floating-point total) matches a charge() call per vertex.
    auto edge = [&](const geom::Point<D>& p, V* dst) {
      int operands = 1;  // self operand
      if (p.t == 0) {
        *dst = guest_->input(p.x, 0);  // input vertex (Definition 3)
      } else {
        V self_prev;
        if (p.t >= st.m) {
          geom::Point<D> q = p;
          q.t = p.t - st.m;
          self_prev = lookup(q);
        } else {
          self_prev = guest_->input(p.x, p.t % st.m);
        }
        BasicNeighbors<D, V> nbrs{};
        for (int i = 0; i < D; ++i) {
          for (int s = 0; s < 2; ++s) {
            geom::Point<D> q = p;
            q.x[i] += (s == 0 ? -1 : 1);
            q.t = p.t - 1;
            if (st.in_space(q.x)) {
              nbrs[2 * i + s] = lookup(q);
              ++operands;
            }
          }
        }
        *dst = rule(p, self_prev, nbrs);
      }
      la.add_cost(static_cast<core::Cost>(operands + 1) * f_leaf);
      la_events += static_cast<std::uint64_t>(operands + 1);
    };
    const core::Cost span_cost =
        static_cast<core::Cost>(2 * D + 2) * f_leaf;

    // The interior span [vlo, vhi] of the row through p at level p.t:
    // neighbor rows come from the window's level t-1, the self row from
    // its level t-m when the whole span sits there, else from staging
    // (in place if it holds a dense row, or gathered into self_row), or
    // from the input cells when t < m.
    auto span = [&](geom::Point<D> p, std::int64_t vlo, std::int64_t vhi,
                    V* dst) {
      const std::int64_t t = p.t;
      const std::size_t n = static_cast<std::size_t>(vhi - vlo + 1);
      p.x[D - 1] = vlo;
      const V* nbrs[geom::kMono<D>];
      for (int i = 0; i < D; ++i) {
        for (int s = 0; s < 2; ++s) {
          std::array<std::int64_t, D> x = p.x;
          x[i] += (s == 0 ? -1 : 1);
          nbrs[2 * i + s] = win.row(t - 1, x);
        }
      }
      geom::Point<D> q = p;  // the self operand of the span's first cell
      q.t = t - st.m;
      const V* self = nullptr;
      if (t >= st.m && q.t >= tmin) {
        q.x[D - 1] = vhi;
        const bool last_in = U.in_box(q);
        q.x[D - 1] = vlo;
        if (last_in && U.in_box(q)) self = win.row(q.t, q.x);
      } else if (t >= st.m) {
        self = cx.staging->row_span(q, n);
      }
      if (self == nullptr) {
        std::vector<V>& row = cx.leaf->self_row;
        if (row.size() < n) row.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
          q.x[D - 1] = vlo + static_cast<std::int64_t>(i);
          row[i] = t >= st.m ? lookup(q) : guest_->input(q.x, t % st.m);
        }
        self = row.data();
      }
      eval_span(rule, dst, self, nbrs, n, p);
      la_events += static_cast<std::uint64_t>(2 * D + 2) * n;
      for (std::size_t i = 0; i < n; ++i) la.add_cost(span_cost);
    };

    // The window fills its scratch in visit order, so the output row
    // pointer just advances.
    V* out = cx.leaf->vals.data();
    std::array<std::pair<std::int64_t, std::int64_t>, D> r{}, pr{};
    geom::Point<D> p;
    for (std::int64_t t = tmin; t <= win.tmax(); ++t) {
      bool empty = false;
      for (int i = 0; i < D; ++i) {
        r[i] = U.x_range(i, t);
        empty = empty || r[i].first > r[i].second;
      }
      if (empty) continue;
      const auto [a, b] = r[D - 1];
      // Innermost span bounds, shared by every row of the level; only
      // rows long enough to hold a span look at the level below.
      std::int64_t vlo = a, vhi = a - 1;
      if (t > tmin && b - a + 1 >= kMinSpan) {
        for (int i = 0; i < D; ++i) pr[i] = U.x_range(i, t - 1);
        vlo = std::max(a, pr[D - 1].first + 1);
        vhi = std::min(b, pr[D - 1].second - 1);
        if (vhi - vlo + 1 < kMinSpan) vhi = vlo - 1;
      }
      p.t = t;
      for (int i = 0; i + 1 < D; ++i) p.x[i] = r[i].first;
      for (;;) {
        bool interior = vlo <= vhi;
        for (int i = 0; i + 1 < D && interior; ++i)
          interior = p.x[i] > pr[i].first && p.x[i] < pr[i].second;
        const std::int64_t lo = interior ? vlo : b + 1;
        for (std::int64_t x = a; x < lo; ++x) {
          p.x[D - 1] = x;
          edge(p, out + (x - a));
        }
        if (interior) {
          span(p, vlo, vhi, out + (vlo - a));
          for (std::int64_t x = vhi + 1; x <= b; ++x) {
            p.x[D - 1] = x;
            edge(p, out + (x - a));
          }
        }
        out += b - a + 1;
        int i = D - 2;  // odometer over the outer coordinates
        for (; i >= 0; --i) {
          if (++p.x[i] <= r[i].second) break;
          p.x[i] = r[i].first;
        }
        if (i < 0) break;
      }
    }
    la.add_events(la_events);
    // Unit compute per vertex: integer-valued, so one batched charge is
    // bit-identical to one unit charge per executed vertex.
    const auto executed = static_cast<std::int64_t>(win.size());
    cx.ledger->charge(core::CostKind::kCompute,
                      static_cast<core::Cost>(executed),
                      static_cast<std::uint64_t>(executed));
    cx.vertices += executed;

    std::int64_t nout = 0;
    U.outset_spans([&](const geom::Point<D>& q, std::int64_t hi) {
      const std::int64_t len = hi - q.x[D - 1] + 1;
      cx.insert_span(q, win.row(q.t, q.x), static_cast<std::size_t>(len));
      nout += len;
    });
    cx.leaf_out = nout;
    if (cfg_.validate) validate_outset(U, *cx.staging);
  }

  /// Evaluate the rule over one interior span: out[i] is the value of
  /// p advanced by i along the innermost coordinate, from self[i] and
  /// nbrs[k][i]. One RowKernel call when the rule has one and
  /// simd::enabled(); otherwise one rule call per cell over the same
  /// rows. Both give the same values (sep/simd.hpp contract).
  template <class RuleFn>
  static void eval_span(const RuleFn& rule, V* out, const V* self,
                        const V* const* nbrs, std::size_t n,
                        geom::Point<D> p) {
    if constexpr (simd::has_row_kernel<RuleFn, D, V>) {
      if (simd::enabled()) {
        rule.row(out, self, nbrs, n, p, 1);
        return;
      }
    }
    BasicNeighbors<D, V> nb;
    const std::int64_t x0 = p.x[D - 1];
    for (std::size_t i = 0; i < n; ++i) {
      for (int k = 0; k < geom::kMono<D>; ++k)
        nb[static_cast<std::size_t>(k)] = nbrs[k][i];
      p.x[D - 1] = x0 + static_cast<std::int64_t>(i);
      out[i] = rule(p, self[i], nb);
    }
  }

  const BasicGuest<D, V>* guest_;
  ExecutorConfig cfg_;
  core::CostLedger* ledger_ = nullptr;
  std::int64_t vertices_ = 0;
  std::size_t peak_staging_ = 0;
  // Leaf scratch of the root context of each execute() call, so a
  // steady-state serial execution performs no per-leaf allocation.
  LeafScratch leaf_;
};

}  // namespace bsmp::sep
