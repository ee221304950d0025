// perfbench — the repository benchmark: two workloads, tables_all and
// multiproc_d1, each timed end to end and split per layer, with every
// op's output checked.
//
//   bsmp_perfbench --workload tables_all|multiproc_d1
//                  [--seed N] [--seconds S] [--trace 0|1]
//                  [--corrupt-expected] [--setup-only]
//
// One process runs one workload. Its set-up computes the expected
// outputs, builds fresh program state and runs one checked, untimed
// warm-up op; then it runs timed ops for --seconds. The last stdout line
// is one JSON object {"correct", "attempted", "failed", "metrics"}:
// with --trace 0 the metrics are the end-to-end ones, with --trace 1
// the per-layer ones. The end-to-end times are in reference-host
// seconds, scaled by a host-speed probe run between layer calls (see
// HostProbe). --setup-only stops after the set-up and prints its time
// as "# setup_s <seconds>". Every layer is measured from
// outside, by timing calls into its public functions and reading the
// counters it already exposes. perfbench/README.md lists every metric
// and the layer it belongs to; perfbench/run.py builds this program,
// sets the environment knobs each workload needs and takes setup_s as
// the median over several --setup-only processes and the measuring one.
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/cost.hpp"
#include "engine/arena.hpp"
#include "engine/attribution.hpp"
#include "engine/metrics.hpp"
#include "engine/plan_cache.hpp"
#include "engine/pool.hpp"
#include "engine/task.hpp"
#include "engine/trace.hpp"
#include "geom/region.hpp"
#include "geom/tiling.hpp"
#include "machine/spec.hpp"
#include "sep/simd.hpp"
#include "sep/staging.hpp"
#include "sim/multiproc.hpp"
#include "sim/reference.hpp"
#include "tables/emitters.hpp"
#include "workload/rules.hpp"

#ifndef NDEBUG
#error "perfbench times optimized code only: build it with CMAKE_BUILD_TYPE=Release"
#endif

using namespace bsmp;

namespace {

using Clock = std::chrono::steady_clock;

double secs(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// User + system CPU seconds of the whole process (every thread).
double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  static_assert(sizeof b == sizeof v);
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// Linear-interpolation quantile (q in [0,1]) of a non-empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Append `what` to a comma-separated list of failed checks.
void add_failure(std::string& bad, const std::string& what) {
  if (!what.empty()) bad += (bad.empty() ? "" : ", ") + what;
}

const char* const kCostKindNames[core::CostLedger::kNumKinds] = {
    "compute", "local_access", "block_move", "comm", "rearrange"};

// ---------------------------------------------------------------------
// Per-op samples: every op fills a flat name -> value map; the per-layer
// metrics are medians of these across the untraced timed ops.
using Sample = std::map<std::string, double>;

void add_task_stats(Sample& s, const engine::TaskStats& t) {
  s["task.spawned"] = static_cast<double>(t.spawned);
  s["task.inlined"] = static_cast<double>(t.inlined);
  s["task.stolen"] = static_cast<double>(t.stolen);
  s["task.steal_ops"] = static_cast<double>(t.steal_ops);
  s["task.join_waits"] = static_cast<double>(t.join_waits);
  double park_ns = 0;
  for (std::size_t i = 0; i < engine::kNumForkPhases; ++i) {
    const auto& ph = t.phase[i];
    const std::string key =
        std::string("task.") +
        engine::fork_phase_name(static_cast<engine::ForkPhase>(i));
    s[key + ".spawned"] = static_cast<double>(ph.spawned);
    s[key + ".join_waits"] = static_cast<double>(ph.join_waits);
    s[key + ".park_s"] = 1e-9 * static_cast<double>(ph.park_ns);
    park_ns += static_cast<double>(ph.park_ns);
  }
  s["task.park_s"] = 1e-9 * park_ns;
}

// ---------------------------------------------------------------------
// Host-speed probe. The benchmark's host is a share of a machine whose
// other tenants slow it by up to ±30% over minutes, for CPU time as much
// as for wall time, so the same op's times drift by more than any bound
// a comparison could use. The probe is a fixed amount of work that does
// not call the library: on each of the workload's threads, a dependent
// walk of a random cycle through a private 4 MiB buffer (past L2, so it
// sees cache and memory contention) and an integer hash loop. One probe
// unit runs after each layer call, outside op time, and the end-to-end
// times are given in reference-host seconds: an op's (the set-up's)
// wall and CPU times are scaled by kProbeRefS over the median CPU time
// of its probe units.

/// The probe unit's CPU time per thread on a quiet moment of the 4-vCPU
/// host the benchmark was defined on.
constexpr double kProbeRefS = 0.023;
/// Probe units the set-up runs at least.
constexpr std::size_t kSetupProbeUnits = 9;

class HostProbe {
 public:
  static constexpr std::uint32_t kWords = 1u << 20;  // 4 MiB per thread
  static constexpr std::uint32_t kSteps = 1u << 18;
  static constexpr std::uint32_t kHashes = 1u << 22;

  explicit HostProbe(int threads) : cycles_(static_cast<std::size_t>(threads)) {
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (auto& c : cycles_) {
      c.resize(kWords);
      for (std::uint32_t i = 0; i < kWords; ++i) c[i] = i;
      for (std::uint32_t i = kWords - 1; i > 0; --i) {  // Sattolo: one cycle
        x ^= x << 13, x ^= x >> 7, x ^= x << 17;
        std::swap(c[i], c[x % i]);
      }
    }
  }

  /// One probe unit: the mean CPU seconds of its threads' timed part.
  /// Each thread first walks its cycle untimed, so that the timed part
  /// finds its buffer and page tables in cache whatever the op before
  /// it left there. CPU time, not wall time, so that a thread waiting
  /// for a CPU the host took away does not count.
  double unit() {
    std::vector<double> cpu(cycles_.size());
    std::vector<std::uint64_t> out(cycles_.size());
    {
      std::vector<std::jthread> ts;  // joined at the end of this scope
      for (std::size_t t = 0; t < cycles_.size(); ++t)
        ts.emplace_back([this, t, &cpu, &out] {
          const auto& c = cycles_[t];
          std::uint32_t i = 0;
          for (std::uint32_t k = 0; k < kSteps; ++k) i = c[i];
          const double c0 = thread_cpu_s();
          for (std::uint32_t k = 0; k < kSteps; ++k) i = c[i];
          std::uint64_t h = i;
          for (std::uint32_t k = 0; k < kHashes; ++k)
            h = (h ^ (h >> 29)) * 0xbf58476d1ce4e5b9ULL + k;
          cpu[t] = thread_cpu_s() - c0;
          out[t] = h;
        });
    }
    for (std::uint64_t h : out) sink_ = sink_ ^ h;
    return mean(cpu);
  }

 private:
  static double thread_cpu_s() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
  }

  std::vector<std::vector<std::uint32_t>> cycles_;
  // Read by nothing: a volatile store keeps the loops from being dropped.
  volatile std::uint64_t sink_ = 0;
};

// ---------------------------------------------------------------------
// Tracing: the benchmark's own spans around each layer call, folded
// per chunk (one op, or one emitter call of a tables op) and the
// recorder cleared after each chunk so no per-thread buffer fills.

constexpr const char* kSpanTables = "bench-tables";
constexpr const char* kSpanSim = "bench-sim";

/// Self time (duration minus directly nested spans on the same thread)
/// of the spans named `name` in `spans`.
double self_seconds(const std::vector<engine::trace::SpanRec>& spans,
                    const char* name) {
  std::map<int, std::vector<const engine::trace::SpanRec*>> by_tid;
  for (const auto& s : spans)
    if (s.ph == 'X') by_tid[s.tid].push_back(&s);
  double self_ns = 0;
  for (auto& [tid, v] : by_tid) {
    std::sort(v.begin(), v.end(), [](auto* a, auto* b) {
      return a->t0_ns != b->t0_ns ? a->t0_ns < b->t0_ns : a->dur_ns > b->dur_ns;
    });
    // Stack of open spans with the summed duration of their direct
    // children.
    std::vector<std::pair<const engine::trace::SpanRec*, std::uint64_t>> st;
    auto close = [&](std::size_t keep) {
      while (st.size() > keep) {
        auto [sp, child_ns] = st.back();
        st.pop_back();
        if (std::strcmp(sp->name, name) == 0)
          self_ns += static_cast<double>(sp->dur_ns - std::min(child_ns, sp->dur_ns));
      }
    };
    for (const auto* s : v) {
      std::size_t keep = st.size();
      while (keep > 0 &&
             st[keep - 1].first->t0_ns + st[keep - 1].first->dur_ns <= s->t0_ns)
        --keep;
      close(keep);
      if (!st.empty()) st.back().second += s->dur_ns;
      st.emplace_back(s, 0);
    }
    close(0);
  }
  return 1e-9 * self_ns;
}

/// Op timing around what runs between the layer calls of an op, which
/// is not op time: the fold of the trace recorder while tracing, and
/// one host-probe unit.
class Between {
 public:
  explicit Between(HostProbe& probe) : probe_(probe) {}

  /// Start timing an op (or the set-up).
  void begin() {
    last_ = Clock::now();
    last_cpu_ = process_cpu_s();
    t_ = Times{};
    probe_s_.clear();
  }

  /// Called after each layer call (each emitter, each simulation): the
  /// time since the last one is op time, the probe unit's is not.
  void chunk(const char* label) {
    t_.wall_s += secs(Clock::now() - last_);
    t_.cpu_s += process_cpu_s() - last_cpu_;
    if (engine::trace::enabled()) fold(label);
    probe_s_.push_back(probe_.unit());
    last_ = Clock::now();
    last_cpu_ = process_cpu_s();
  }

  /// An op's time without the time between its layer calls.
  struct Times {
    double wall_s = 0, cpu_s = 0;          // as measured
    double ref_wall_s = 0, ref_cpu_s = 0;  // in reference-host seconds
    double probe_s = 0;                    // median probe-unit CPU time
  };

  /// Wall seconds of op time so far.
  double wall_s() const { return t_.wall_s; }
  /// Probe units run since begin().
  std::size_t probe_units() const { return probe_s_.size(); }

  /// Close the current op (or the set-up), which ran at least one probe
  /// unit. A traced op's totals become one sample.
  Times end() {
    t_.wall_s += secs(Clock::now() - last_);
    t_.cpu_s += process_cpu_s() - last_cpu_;
    t_.probe_s = median(probe_s_);
    t_.ref_wall_s = t_.wall_s * kProbeRefS / t_.probe_s;
    t_.ref_cpu_s = t_.cpu_s * kProbeRefS / t_.probe_s;
    if (!op_.empty()) ops_.push_back(std::move(op_));
    op_.clear();
    return t_;
  }

  std::uint64_t dropped() const { return dropped_; }
  const std::vector<Sample>& ops() const { return ops_; }

 private:
  /// Fold the recorder's spans since the last chunk into the current
  /// op's totals, then clear the recorder.
  void fold(const char* label) {
    const engine::Attribution a = engine::fold_attribution_since(0);
    const auto spans = engine::trace::snapshot();
    const std::uint64_t dropped = engine::trace::dropped();
    if (dropped > 0)
      std::printf("# trace %s: %zu events held, %llu dropped\n", label,
                  spans.size(), static_cast<unsigned long long>(dropped));
    dropped_ += dropped;
    for (std::size_t m = 0; m < engine::kNumMechanisms; ++m)
      op_["attr." + std::string(engine::mechanism_name(
                        static_cast<engine::Mechanism>(m))) + "_s"] +=
          1e-9 * static_cast<double>(a.mechanism[m].self_ns);
    op_["attr.total_self_s"] += 1e-9 * static_cast<double>(a.total_self_ns);
    op_["attr.critical_path_s"] +=
        1e-9 * static_cast<double>(a.critical_path_ns);
    for (std::size_t p = 0; p < engine::kNumForkPhases; ++p) {
      double ns = 0;
      for (std::size_t m = 0; m < engine::kNumMechanisms; ++m)
        ns += static_cast<double>(a.phase[p][m]);
      op_["attr.phase." +
          std::string(engine::fork_phase_name(static_cast<engine::ForkPhase>(p))) +
          "_s"] += 1e-9 * ns;
    }
    op_["span.tables_self_s"] += self_seconds(spans, kSpanTables);
    op_["span.sim_self_s"] += self_seconds(spans, kSpanSim);
    engine::trace::clear();
  }

  HostProbe& probe_;
  Clock::time_point last_;
  double last_cpu_ = 0;
  std::vector<double> probe_s_;
  Times t_;
  Sample op_;
  std::uint64_t dropped_ = 0;
  std::vector<Sample> ops_;
};

// ---------------------------------------------------------------------
// Geometry walk: the separator recursion of a simulator with only the
// geom::Region calls (split, preboundary_count, outset_count) — no
// values, no staging. Returns the summed boundary counts, which equal
// the boundary words a separator-recursion executor stages over it.

template <int D>
std::int64_t walk_region(const geom::Region<D>& U, std::int64_t leaf,
                         std::int64_t& nodes) {
  ++nodes;
  if (U.width() <= leaf) return 0;
  std::int64_t moved = 0;
  for (const geom::Region<D>& child : U.split()) {
    moved += child.preboundary_count();
    moved += walk_region(child, leaf, nodes);
    moved += child.outset_count();
  }
  return moved;
}

template <int D>
std::int64_t walk_tiles(const geom::Stencil<D>& st, std::int64_t tile_w,
                        std::int64_t leaf, std::int64_t& nodes) {
  std::int64_t moved = 0;
  geom::TileGrid<D> grid(&st, tile_w);
  for (const auto& wave : grid.wavefronts())
    for (const auto& tile : wave) {
      moved += tile.preboundary_count();
      moved += walk_region(tile, std::min(leaf, tile_w), nodes);
      moved += tile.outset_count();
    }
  return moved;
}

// ---------------------------------------------------------------------
// Workloads.

class Workload {
 public:
  virtual ~Workload() = default;
  /// Executors of the pool the ops run on (1 when no pool).
  virtual int threads() const = 0;
  /// Compute the expected outputs once (reference and serial runs or a
  /// threads=1 emission) and build the state the ops run on; `corrupt`
  /// flips one expected bit so every op must be counted as failed.
  /// Calls `between` after each of its layer calls. Returns "" or a
  /// description of a failed expectation check.
  virtual std::string expect(bool corrupt, Between& between) = 0;
  /// Wall seconds of one warm serial execution (the threads=1 emission,
  /// or the grains-off run with no pool bound).
  virtual double time_serial() = 0;
  /// One op; fills the per-op layer sample and calls `between` after
  /// each of its layer calls. Output kept for check().
  virtual void op(Sample& s, Between& between) = 0;
  /// "" when the last op's outputs are correct, else what differed.
  virtual std::string check() = 0;
  /// Work items per op for the throughput metrics.
  virtual double vertices_per_op() const = 0;
  virtual double points_per_op() const = 0;
  /// Geometry walk of the workload's separator recursion: returns the
  /// nodes visited (0 when it has none); `moved` gets the boundary sum.
  virtual std::int64_t geom_walk(std::int64_t& moved) const = 0;
};

// --- tables_all ------------------------------------------------------

/// A conformance golden digest: table `index` of emitter `emitter`
/// (-1: the last table), as pinned by tests/test_engine_determinism.
struct Golden {
  const char* emitter;
  int index;
  const char* what;
  std::uint64_t digest;
};

constexpr Golden kGoldens[] = {
    {"e3", 0, "E3a", 0x002043532995f039ULL},
    {"e5", 0, "E5a", 0xe4f6a8f086a2f136ULL},
    {"e7", 0, "E7a", 0x111a254f5489d56eULL},
    {"ens", 0, "ens", 0x177c97459c69092eULL},
    {"e6d", -1, "E6d-fit", 0xf0e7f309f26f7179ULL},
    {"cal", 0, "CAL-a", 0xb8883e89112d030fULL},
};

class TablesAll : public Workload {
 public:
  explicit TablesAll(int threads) : threads_(threads) {}

  int threads() const override { return threads_; }

  std::string expect(bool corrupt, Between& between) override {
    engine::Metrics metrics;
    const auto outs = emit_serial(metrics, &between);
    const auto& em = tables::all_emitters();
    expected_.clear();
    for (const auto& out : outs) expected_.push_back(render(out));
    std::string bad;
    for (const Golden& g : kGoldens) {
      for (std::size_t i = 0; i < em.size(); ++i) {
        if (std::strcmp(em[i].name, g.emitter) != 0) continue;
        const auto& tabs = outs[i];
        const std::size_t k = g.index < 0 ? tabs.size() - 1
                                          : static_cast<std::size_t>(g.index);
        if (tabs.empty() || k >= tabs.size() || tabs[k].table.digest() != g.digest)
          add_failure(bad, std::string(g.what) + " golden digest");
      }
    }
    for (const auto& m : metrics.hot_snapshot())
      vertices_ += static_cast<double>(m.vertices);
    for (const auto& sw : metrics.snapshot())
      points_ += static_cast<double>(sw.points);
    if (corrupt) expected_[0][0].push_back('!');
    return bad;
  }

  double time_serial() override {
    engine::Metrics metrics;
    const auto t0 = Clock::now();
    emit_serial(metrics);
    return secs(Clock::now() - t0);
  }

  void op(Sample& s, Between& between) override {
    engine::Pool pool(threads_);
    engine::PlanCache plans;
    engine::Metrics metrics;
    tables::EngineCtx ctx{&pool, &plans, &metrics};
    got_.clear();
    for (const auto& e : tables::all_emitters()) {
      const auto t0 = Clock::now();
      std::vector<tables::Emitted> out;
      {
        engine::trace::Span span(engine::trace::Cat::kSweepPoint, kSpanTables,
                                 std::string_view(e.name));
        out = e.fn(ctx);
      }
      s[std::string("tables.") + e.name + "_s"] = secs(Clock::now() - t0);
      between.chunk(e.name);
      got_.push_back(render(out));
    }
    // Sweep engine: every point of every sweep of this op.
    std::vector<double> run_s;
    double busy = 0, capacity = 0, wait = 0, points = 0;
    for (const auto& sw : metrics.snapshot()) {
      points += static_cast<double>(sw.points);
      busy += sw.busy_s();
      capacity += sw.wall_s * sw.pool_threads;
      for (const auto& p : sw.per_point) {
        run_s.push_back(p.run_s);
        wait += p.queue_wait_s;
      }
    }
    s["sweep.points"] = points;
    s["sweep.point_s_p50"] = median(run_s);
    s["sweep.point_s_max"] =
        run_s.empty() ? 0.0 : *std::max_element(run_s.begin(), run_s.end());
    s["sweep.queue_wait_s"] = run_s.empty() ? 0.0 : wait / run_s.size();
    s["sweep.occupancy"] = capacity > 0 ? busy / capacity : 0.0;
    const auto cs = plans.stats();
    s["plan_cache.lookups"] = static_cast<double>(cs.lookups());
    s["plan_cache.hit_ratio"] = cs.hit_rate();
    s["plan_cache.builds"] = static_cast<double>(cs.builds);
    s["plan_cache.bytes"] = static_cast<double>(cs.bytes);
    add_task_stats(s, pool.task_stats());
    // Simulator sections the emitters report (hot and ens).
    double vertices = 0, allocs = 0, peak = 0;
    for (const auto& h : metrics.hot_snapshot()) {
      vertices += static_cast<double>(h.vertices);
      allocs += static_cast<double>(h.staging_allocs);
      peak = std::max(peak, static_cast<double>(h.peak_staging_words));
    }
    s["sim.vertices"] = vertices;
    s["sep.peak_staging_words"] = peak;
    s["sep.level_allocs"] = allocs;
  }

  std::string check() override {
    std::string bad;
    const auto& em = tables::all_emitters();
    for (std::size_t i = 0; i < em.size(); ++i) {
      const auto& want = expected_[i];
      const auto& got = i < got_.size() ? got_[i] : std::vector<std::string>{};
      if (got.size() != want.size()) {
        add_failure(bad, std::string(em[i].name) + " table count");
        continue;
      }
      for (std::size_t k = 0; k < want.size(); ++k)
        if (got[k] != want[k])
          add_failure(bad, std::string(em[i].name) + " table " + std::to_string(k));
    }
    return bad;
  }

  double vertices_per_op() const override { return vertices_; }
  double points_per_op() const override { return points_; }
  std::int64_t geom_walk(std::int64_t& moved) const override {
    moved = 0;
    return 0;
  }

 private:
  /// Every emitter on a fresh Pool(1) and PlanCache, with `between`
  /// called after each.
  static std::vector<std::vector<tables::Emitted>> emit_serial(
      engine::Metrics& metrics, Between* between = nullptr) {
    engine::Pool pool(1);
    engine::PlanCache plans;
    tables::EngineCtx ctx{&pool, &plans, &metrics};
    std::vector<std::vector<tables::Emitted>> outs;
    for (const auto& e : tables::all_emitters()) {
      outs.push_back(e.fn(ctx));
      if (between) between->chunk(e.name);
    }
    return outs;
  }

  /// Every table's rendered bytes followed by its note.
  static std::vector<std::string> render(
      const std::vector<tables::Emitted>& out) {
    std::vector<std::string> r;
    for (const auto& a : out) r.push_back(a.table.to_string() + a.note);
    return r;
  }

  int threads_;
  std::vector<std::vector<std::string>> expected_, got_;
  double vertices_ = 0, points_ = 0;
};

// --- multiproc_d1 ----------------------------------------------------

/// The deterministic fingerprint of one simulation: what every op must
/// reproduce bit for bit.
struct SimPrint {
  std::uint64_t time_bits = 0;
  std::array<std::uint64_t, core::CostLedger::kNumKinds> cost_bits{};
  std::array<std::uint64_t, core::CostLedger::kNumKinds> events{};
  std::int64_t vertices = 0;
  std::size_t peak_staging = 0;
  std::size_t level_allocs = 0;
};

SimPrint print_of(const sim::SimResult<1>& r, const engine::Metrics& sink) {
  SimPrint p;
  p.time_bits = bits_of(r.time);
  for (std::size_t k = 0; k < core::CostLedger::kNumKinds; ++k) {
    const auto kind = static_cast<core::CostKind>(k);
    p.cost_bits[k] = bits_of(r.ledger.cost(kind));
    p.events[k] = r.ledger.events(kind);
  }
  p.vertices = r.vertices;
  const auto hot = sink.hot_snapshot();
  if (!hot.empty()) {
    p.peak_staging = hot.back().peak_staging_words;
    p.level_allocs = hot.back().staging_allocs;
  }
  return p;
}

std::string diff_prints(const SimPrint& want, const SimPrint& got) {
  std::string bad;
  if (want.time_bits != got.time_bits) add_failure(bad, "virtual time bits");
  for (std::size_t k = 0; k < core::CostLedger::kNumKinds; ++k) {
    if (want.cost_bits[k] != got.cost_bits[k])
      add_failure(bad, std::string("ledger ") + kCostKindNames[k] + " bits");
    if (want.events[k] != got.events[k])
      add_failure(bad, std::string("ledger ") + kCostKindNames[k] + " events");
  }
  if (want.vertices != got.vertices) add_failure(bad, "vertices");
  if (want.peak_staging != got.peak_staging) add_failure(bad, "peak staging");
  return bad;
}

/// Theorem 4 two-regime simulation, d=1, n=1024, T=1024, p=16, s=32,
/// m=2, mix guest, on a bound Pool. The fork grains come from the
/// BSMP_PARALLEL_GRAIN / BSMP_RELOC_GRAIN / BSMP_WAVE_GRAIN knobs.
class MultiprocD1 : public Workload {
 public:
  static constexpr std::int64_t kN = 1024, kT = 1024, kP = 16, kS = 32, kM = 2;

  MultiprocD1(std::uint64_t seed, int threads) : seed_(seed), threads_(threads) {}

  int threads() const override { return threads_; }

  std::string expect(bool corrupt, Between& between) override {
    guest_.emplace(workload::make_mix_guest<1>({kN}, kT, kM, seed_));
    if (threads_ > 1) pool_ = std::make_unique<engine::Pool>(threads_);
    ref_values_ = sim::reference_run(*guest_).final_values;
    between.chunk("reference");
    engine::Metrics sink;
    const auto serial = run_serial(sink);
    between.chunk("serial");
    want_ = print_of(serial, sink);
    vertices_ = static_cast<double>(serial.vertices);
    if (corrupt) want_.time_bits ^= 1;
    return serial.final_values == ref_values_
               ? ""
               : "serial run final values differ from the reference";
  }

  double time_serial() override {
    engine::Metrics sink;
    const auto t0 = Clock::now();
    run_serial(sink);
    return secs(Clock::now() - t0);
  }

  void op(Sample& s, Between& between) override {
    engine::Metrics sink;
    const engine::TaskStats before =
        pool_ ? pool_->task_stats() : engine::TaskStats{};
    auto simulate = [&] {
      engine::trace::Span span(engine::trace::Cat::kSim, kSpanSim);
      sim::MultiprocConfig cfg;
      cfg.s = kS;
      cfg.metrics = &sink;
      got_ = sim::simulate_multiproc<1>(*guest_, spec(), cfg);
    };
    if (pool_) {
      auto bind = pool_->bind_caller();
      simulate();
    } else {
      simulate();
    }
    between.chunk("sim");
    got_print_ = print_of(*got_, sink);
    if (pool_) add_task_stats(s, pool_->task_stats() - before);
    s["sim.vertices"] = static_cast<double>(got_->vertices);
    s["sim.virtual_time"] = got_->time;
    for (std::size_t k = 0; k < core::CostLedger::kNumKinds; ++k)
      s[std::string("ledger.") + kCostKindNames[k] + ".events"] =
          static_cast<double>(got_->ledger.events(static_cast<core::CostKind>(k)));
    s["sep.peak_staging_words"] = static_cast<double>(got_print_.peak_staging);
    s["sep.level_allocs"] = static_cast<double>(got_print_.level_allocs);
  }

  std::string check() override {
    std::string bad = diff_prints(want_, got_print_);
    if (got_->final_values != ref_values_) add_failure(bad, "final values");
    return bad;
  }

  double vertices_per_op() const override { return vertices_; }
  double points_per_op() const override { return 1.0; }

  std::int64_t geom_walk(std::int64_t& moved) const override {
    // The embedded executor's recursion over s-wide tiles down to
    // leaf width min(m, s), across the whole volume.
    std::int64_t nodes = 0;
    moved = walk_tiles<1>(guest_->stencil, kS, std::min(kM, kS), nodes);
    return nodes;
  }

 private:
  static machine::MachineSpec spec() {
    machine::MachineSpec s;
    s.d = 1;
    s.n = kN;
    s.p = kP;
    s.m = kM;
    return s;
  }

  /// The serial reference execution: no pool bound, fork grains off.
  sim::SimResult<1> run_serial(engine::Metrics& sink) const {
    sim::MultiprocConfig cfg;
    cfg.s = kS;
    cfg.reloc_grain = 0;
    cfg.wave_grain = 0;
    cfg.metrics = &sink;
    return sim::simulate_multiproc<1>(*guest_, spec(), cfg);
  }

  std::uint64_t seed_;
  int threads_;
  std::optional<sep::Guest<1>> guest_;
  std::unique_ptr<engine::Pool> pool_;
  sep::BasicValueMap<1, sep::Word> ref_values_;
  SimPrint want_, got_print_;
  std::optional<sim::SimResult<1>> got_;
  double vertices_ = 0;
};

// ---------------------------------------------------------------------
// Output.

struct Metric {
  double value;
  const char* unit;
};
using MetricMap = std::map<std::string, Metric>;

std::string json_escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') o.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    o.push_back(c);
  }
  return o;
}

std::string num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i)
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

/// Host identity printed with every result.
std::string host_line(const std::string& workload, int threads,
                      const engine::trace::RunManifest& man) {
  std::ostringstream o;
  o << "{\"workload\": \"" << workload << "\", \"nproc\": "
    << engine::Pool::hardware_threads() << ", \"threads\": " << threads
    << ", \"cpu_model\": \"" << json_escape(cpu_model())
    << "\", \"l2_bytes\": " << sysconf(_SC_LEVEL2_CACHE_SIZE)
    << ", \"l3_bytes\": " << sysconf(_SC_LEVEL3_CACHE_SIZE)
    << ", \"simd_isa\": \"" << sep::simd::active_isa()
    << "\", \"compiler\": \"" << json_escape(man.compiler)
    << "\", \"build_type\": \"" << json_escape(man.build_type) << "\"}";
  return o.str();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 7;
  double seconds = 30;
  bool trace = false;
  bool corrupt = false;
  bool setup_only = false;
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: bsmp_perfbench --workload "
               "tables_all|multiproc_d1 [--seed N] [--seconds S] "
               "[--trace 0|1] [--corrupt-expected] [--setup-only]\n",
               why);
  return 2;
}

std::optional<Args> parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--corrupt-expected" || k == "--setup-only") {
      (k == "--setup-only" ? a.setup_only : a.corrupt) = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return std::nullopt;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0) || a.seconds > 3600)
        return std::nullopt;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return std::nullopt;
      a.trace = v == "1";
    } else {
      return std::nullopt;
    }
  }
  return a;
}

/// The set-up: expected outputs and program state, then one checked,
/// untimed warm-up op (the cold one, whose wall time goes to
/// `first_op_s`). Returns "" or the failed checks.
std::string set_up(Workload& w, bool corrupt, Between& between,
                   double& first_op_s) {
  std::string bad = w.expect(corrupt, between);
  Sample warm;
  const double before = between.wall_s();
  w.op(warm, between);
  first_op_s = between.wall_s() - before;
  if (!corrupt) add_failure(bad, w.check());
  return bad;
}

/// What the timed ops leave: per-layer samples, the times of the
/// untraced ops, the wall times of the traced ones, and the failed
/// checks.
struct Timed {
  std::size_t attempted = 0;
  std::vector<Sample> samples;
  std::vector<Between::Times> times;
  std::vector<double> traced_op_s;
  std::vector<std::string> failures;
};

/// Run checked ops until `seconds` have passed since `t_measure`. A
/// traced run switches the recorder on for its second half only (at
/// least one op); the traced ops feed the attribution and
/// trace.overhead only, never the per-layer medians.
Timed run_ops(Workload& w, Between& between, Clock::time_point t_measure,
              double seconds, bool trace) {
  Timed r;
  engine::ArenaStats arena_prev = engine::Arena::instance().stats();
  while (r.samples.empty() || secs(Clock::now() - t_measure) < seconds ||
         (trace && r.traced_op_s.empty())) {
    const bool traced = trace && !r.samples.empty() &&
                        secs(Clock::now() - t_measure) >= seconds / 2;
    engine::trace::set_enabled(traced);
    Sample s;
    between.begin();
    w.op(s, between);
    const Between::Times t = between.end();
    engine::trace::set_enabled(false);
    const engine::ArenaStats arena_now = engine::Arena::instance().stats();
    const engine::ArenaStats d = arena_now - arena_prev;
    arena_prev = arena_now;
    ++r.attempted;
    if (traced) {
      r.traced_op_s.push_back(t.wall_s);
    } else {
      s["arena.cold_allocs_per_op"] = static_cast<double>(d.cold_allocs);
      s["arena.slab_reuses_per_op"] = static_cast<double>(d.slab_reuses);
      s["arena.scratch_cold_per_op"] = static_cast<double>(d.scratch_cold);
      s["task.busy_frac"] = t.cpu_s / (t.wall_s * w.threads());
      r.times.push_back(t);
      r.samples.push_back(std::move(s));
    }
    const std::string bad = w.check();
    if (!bad.empty())
      r.failures.push_back("op " + std::to_string(r.attempted - 1) + ": " + bad);
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const int n_threads = std::min(engine::Pool::hardware_threads(), 4);
  // The probe is the benchmark's own: the set-up clock starts after it.
  HostProbe probe(n_threads);
  Between between(probe);
  between.begin();
  const auto args = parse(argc, argv);
  if (!args) return usage("bad arguments");

  const auto manifest = engine::trace::make_run_manifest("perfbench");
  if (manifest.build_type != "Release") {
    std::fprintf(stderr, "perfbench: refusing to time a '%s' build; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 manifest.build_type.c_str());
    return 3;
  }
  if (args->trace && !engine::trace::compiled()) {
    std::fprintf(stderr, "perfbench: --trace 1 needs the span recorder "
                 "(configure with -DBSMP_TRACE=ON)\n");
    return 3;
  }

  std::unique_ptr<Workload> w;
  if (args->workload == "tables_all") {
    w = std::make_unique<TablesAll>(n_threads);
  } else if (args->workload == "multiproc_d1") {
    // The fork points are switched on through the documented knobs, so
    // the workload follows whatever grain policy the library reads.
    if (sep::default_parallel_grain() != 16 || sep::default_reloc_grain() != 64 ||
        sep::default_wave_grain() != 2) {
      std::fprintf(stderr, "perfbench: multiproc_d1 needs BSMP_PARALLEL_GRAIN=16 "
                   "BSMP_RELOC_GRAIN=64 BSMP_WAVE_GRAIN=2 (run.py sets them)\n");
      return 3;
    }
    w = std::make_unique<MultiprocD1>(args->seed, n_threads);
  } else {
    return usage("unknown workload");
  }
  std::printf("# host %s\n", host_line(args->workload, w->threads(), manifest).c_str());
  std::fflush(stdout);

  engine::trace::set_enabled(false);
  double first_op_s = 0;
  const std::string setup_failures = set_up(*w, args->corrupt, between, first_op_s);
  // A set-up with few layer calls gets more probe units, so that one
  // spell of steal time cannot set its median.
  while (between.probe_units() < kSetupProbeUnits) between.chunk("set-up");
  const Between::Times setup = between.end();
  bool correct = setup_failures.empty();
  if (!correct) std::printf("# FAILED set-up: %s\n", setup_failures.c_str());
  if (args->setup_only) {
    std::printf("# setup_s %.17g\n", setup.ref_wall_s);
    return 0;
  }

  const Timed r = run_ops(*w, between, Clock::now(), args->seconds, args->trace);
  for (const auto& f : r.failures) std::printf("# FAILED %s\n", f.c_str());
  if (!r.failures.empty()) correct = false;
  std::vector<double> op_ref_s, cpu_ref_s, op_s, probe_s;
  for (const auto& t : r.times) {
    op_ref_s.push_back(t.ref_wall_s);
    cpu_ref_s.push_back(t.ref_cpu_s);
    op_s.push_back(t.wall_s);
    probe_s.push_back(t.probe_s);
  }
  const double op_p50 = median(op_ref_s);
  const double wall_p50 = median(op_s);

  MetricMap out;
  if (!args->trace) {
    out["setup_s"] = {setup.ref_wall_s, "s"};
    out["op_s_p50"] = {op_p50, "s"};
    out["vertices_per_s"] = {w->vertices_per_op() / op_p50, "1/s"};
    out["points_per_s"] = {w->points_per_op() / op_p50, "1/s"};
    out["cpu_s_per_op"] = {median(cpu_ref_s), "s"};
    out["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  } else {
    // The op-time tail, from the untraced half. It is not end-to-end:
    // on a shared host it follows the host's speed drift more than the
    // program (see perfbench/README.md).
    out["op_s_p90"] = {quantile(op_ref_s, 0.9), "s"};
    // The host's speed and the unscaled op time, from which the scaled
    // end-to-end times are made.
    out["host.probe_s"] = {median(probe_s), "s"};
    out["host.op_wall_s_p50"] = {wall_p50, "s"};
    // Per-layer: medians over the untraced timed ops of each per-op
    // counter (absent counters are 0: the layer did no work here).
    auto med = [&](const std::string& key) {
      std::vector<double> v;
      for (const auto& s : r.samples) {
        auto it = s.find(key);
        v.push_back(it == s.end() ? 0.0 : it->second);
      }
      return median(v);
    };
    for (const auto& e : tables::all_emitters())
      out[std::string("tables.") + e.name + "_s"] = {med(std::string("tables.") + e.name + "_s"), "s"};
    out["sweep.points"] = {med("sweep.points"), "count"};
    for (const char* k : {"sweep.point_s_p50", "sweep.point_s_max", "sweep.queue_wait_s"})
      out[k] = {med(k), "s"};
    out["sweep.occupancy"] = {med("sweep.occupancy"), "ratio"};
    out["plan_cache.lookups"] = {med("plan_cache.lookups"), "count"};
    out["plan_cache.hit_ratio"] = {med("plan_cache.hit_ratio"), "ratio"};
    out["plan_cache.builds"] = {med("plan_cache.builds"), "count"};
    out["plan_cache.bytes"] = {med("plan_cache.bytes"), "bytes"};
    for (const char* k : {"task.spawned", "task.inlined", "task.stolen",
                          "task.steal_ops", "task.join_waits"})
      out[k] = {med(k), "count"};
    out["task.park_s"] = {med("task.park_s"), "s"};
    out["task.busy_frac"] = {med("task.busy_frac"), "ratio"};
    for (std::size_t i = 0; i < engine::kNumForkPhases; ++i) {
      const std::string key =
          std::string("task.") + engine::fork_phase_name(static_cast<engine::ForkPhase>(i));
      out[key + ".spawned"] = {med(key + ".spawned"), "count"};
      out[key + ".join_waits"] = {med(key + ".join_waits"), "count"};
      out[key + ".park_s"] = {med(key + ".park_s"), "s"};
    }
    // A warm serial execution, timed after the ops so that both sides
    // of the ratio run warm.
    out["task.speedup_vs_serial"] = {w->time_serial() / wall_p50, "ratio"};
    out["arena.cold_allocs_per_op"] = {med("arena.cold_allocs_per_op"), "count"};
    out["arena.slab_reuses_per_op"] = {med("arena.slab_reuses_per_op"), "count"};
    out["arena.scratch_cold_per_op"] = {med("arena.scratch_cold_per_op"), "count"};
    out["arena.peak_mb"] = {
        static_cast<double>(engine::Arena::instance().stats().peak_bytes) / (1 << 20),
        "MB"};
    out["arena.first_op_s"] = {first_op_s, "s"};
    out["sim.vertices"] = {med("sim.vertices"), "count"};
    out["sim.virtual_time"] = {med("sim.virtual_time"), "units"};
    for (const char* k : kCostKindNames) {
      const std::string key = std::string("ledger.") + k + ".events";
      out[key] = {med(key), "count"};
    }
    out["sep.peak_staging_words"] = {med("sep.peak_staging_words"), "words"};
    out["sep.level_allocs"] = {med("sep.level_allocs"), "count"};

    // Geometry-only walk of the workload's separator recursion.
    std::vector<double> walk_s;
    std::int64_t nodes = 0, moved = 0;
    for (int i = 0; i < 5; ++i) {
      const auto t0 = Clock::now();
      nodes = w->geom_walk(moved);
      walk_s.push_back(secs(Clock::now() - t0));
      if (nodes == 0) break;
    }
    const double walk = nodes > 0 ? median(walk_s) : 0.0;
    out["geom.walk_s"] = {walk, "s"};
    out["geom.nodes"] = {static_cast<double>(nodes), "count"};
    out["geom.walk_share"] = {walk / wall_p50, "ratio"};
    std::printf("# geom walk: %lld nodes, %lld boundary words\n",
                static_cast<long long>(nodes), static_cast<long long>(moved));

    // Traced half: attribution of the benchmark's and library's spans.
    out["trace.dropped"] = {static_cast<double>(between.dropped()), "count"};
    out["trace.trusted"] = {between.dropped() == 0 ? 1.0 : 0.0, "bool"};
    out["trace.overhead"] = {median(r.traced_op_s) / wall_p50, "ratio"};
    if (between.dropped() == 0) {
      std::map<std::string, std::vector<double>> per_key;
      for (const auto& s : between.ops())
        for (const auto& [k, v] : s) per_key[k].push_back(v);
      // Means, not medians, so the mechanism slices still add up to
      // attr.total_self_s.
      for (const auto& [k, v] : per_key) out[k] = {mean(v), "s"};
    } else {
      std::printf("# trace: %llu events dropped, attribution untrusted and "
                  "not reported\n",
                  static_cast<unsigned long long>(between.dropped()));
    }
  }

  std::printf("# op_s");
  for (double v : op_s) std::printf(" %.4f", v);
  std::printf("\n# op_ref_s");
  for (double v : op_ref_s) std::printf(" %.4f", v);
  std::printf("\n# probe_s");
  for (double v : probe_s) std::printf(" %.5f", v);
  std::printf("\n# ops %zu timed (%zu traced), set-up %.3f s wall, %.3f s "
              "reference (first op %.3f s)\n",
              r.attempted, r.traced_op_s.size(), setup.wall_s, setup.ref_wall_s,
              first_op_s);
  std::ostringstream o;
  o << "{\"correct\": " << (correct ? "true" : "false")
    << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failures.size()
    << ", \"metrics\": {";
  bool first = true;
  for (const auto& [k, m] : out) {
    o << (first ? "" : ", ") << "\"" << k << "\": {\"value\": " << num(m.value)
      << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  o << "}}";
  std::printf("%s\n", o.str().c_str());
  return 0;
}
