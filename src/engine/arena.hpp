// engine::Arena — the process-wide slab pool under the staging and
// fork-scratch layers.
//
// Steady-state sweep throughput is allocation-bound without it: every
// sweep point rebuilds its staging store from cold, fully-zeroed level
// slabs, and every fork constructs fresh shard-local stores, ChargeLog
// buffers and phase logs. The arena closes that gap in two layers:
//
//   * Arena::acquire/release — raw slabs in power-of-two size classes,
//     served from a per-thread free-list cache first (no lock on the
//     hot path) and a mutex-protected global pool second. A recycled
//     slab's contents are stale; callers own the liveness story
//     (StagingStore tags slots with a per-level epoch byte so reuse
//     needs no re-zeroing — see sep/staging.hpp).
//   * Scratch<T> — a per-thread object cache for the fork-scratch
//     types (core::ChargeLog, phase logs, leaf windows): acquire a
//     recycled object at fork, return it at join. T needs a clear()
//     that forgets contents but keeps capacity.
//
// The arena changes *where* memory comes from, never what is computed:
// recycled values are only ever read through liveness checks that a
// recycled slab cannot satisfy, so every table, charge stream and
// metric is byte-identical with the arena on or off. The BSMP_ARENA
// knob (default on; "0"/"off" disables) exists so the conformance
// matrix can prove exactly that, and so the sweep-throughput bench can
// measure the cold allocation path it replaces.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace bsmp::engine {

/// Process-wide arena switch (BSMP_ARENA at process start; default on).
/// Off: acquire/release degrade to plain operator new/delete and every
/// scratch checkout constructs cold — the seed allocation behavior,
/// kept as the conformance baseline and the bench's "cold path".
bool arena_enabled();

/// Override the process-wide switch (tests; benches).
void set_arena_enabled(bool on);

/// Counters of the arena and the scratch caches (metrics-v2 "mem"
/// block). cold_allocs / slab_reuses / releases / scratch_* are
/// monotone; bytes_held / bytes_live / peak_bytes are absolute gauges.
struct ArenaStats {
  std::uint64_t cold_allocs = 0;   ///< slabs freshly allocated
  std::uint64_t slab_reuses = 0;   ///< acquires served from a free list
  std::uint64_t releases = 0;      ///< release() calls
  std::uint64_t scratch_checkouts = 0;  ///< Scratch<T> pool hits
  std::uint64_t scratch_cold = 0;       ///< Scratch<T> cold constructions
  std::uint64_t bytes_held = 0;    ///< bytes sitting in free lists now
  std::uint64_t bytes_live = 0;    ///< bytes checked out now
  std::uint64_t peak_bytes = 0;    ///< high-water of held + live
};

/// Pass-scoped delta: monotone counters subtract, gauges keep the
/// later (lhs) snapshot — matching how metrics passes are reported.
inline ArenaStats operator-(ArenaStats a, const ArenaStats& b) {
  a.cold_allocs -= b.cold_allocs;
  a.slab_reuses -= b.slab_reuses;
  a.releases -= b.releases;
  a.scratch_checkouts -= b.scratch_checkouts;
  a.scratch_cold -= b.scratch_cold;
  return a;
}

class Arena {
 public:
  /// One slab. `bytes` is the size-class capacity (>= the requested
  /// size); `recycled` tells the caller the contents are stale (pool
  /// hit) rather than fresh from the allocator. Either way the memory
  /// is uninitialized from the caller's point of view.
  struct Block {
    void* data = nullptr;
    std::size_t bytes = 0;
    bool recycled = false;

    explicit operator bool() const { return data != nullptr; }
  };

  /// The process-wide arena.
  static Arena& instance();

  /// A slab of at least `bytes` (0 returns a null block). Thread-safe;
  /// the per-thread cache makes the reuse path lock-free.
  Block acquire(std::size_t bytes);

  /// Return a slab (null blocks are ignored). With the arena enabled
  /// the slab lands in this thread's cache (overflow goes to the
  /// global pool, capped — beyond the cap it is freed); disabled, it
  /// is freed immediately.
  void release(Block b);

  /// Counter snapshot (relaxed reads; exact once quiescent).
  ArenaStats stats() const;

  /// Drop every pooled slab of the global pool and the calling
  /// thread's cache. Other threads' caches drain on thread exit.
  void trim();

  /// Scratch<T> accounting hook (one checkout; `cold` when it had to
  /// construct instead of reusing).
  void note_scratch(bool cold);

  /// Construct the calling thread's free-list cache now. Call from the
  /// initializer of any thread_local object that releases blocks in
  /// its destructor: thread_locals die in reverse order of
  /// construction, so priming first guarantees the cache outlives the
  /// releasing object.
  void prime_thread();

 private:
  Arena() = default;
  struct Impl;
  Impl& impl();
};

/// RAII checkout of a pooled scratch object: acquire a recycled T from
/// the calling thread's cache (or default-construct one), hand it back
/// at destruction. T must be movable and have a clear() that forgets
/// contents while keeping capacity. Acquire and release run on the
/// constructing thread — construct Scratch where the object's owner
/// lives (the forking thread for fork bookkeeping, the worker thread
/// for per-task scratch). With the arena disabled every checkout
/// constructs cold and the destructor just drops the object.
template <class T>
class Scratch {
 public:
  Scratch() {
    auto& pool = tls();
    if (arena_enabled() && !pool.empty()) {
      obj_ = std::move(pool.back());
      pool.pop_back();
      Arena::instance().note_scratch(false);
    } else {
      Arena::instance().note_scratch(true);
    }
  }

  ~Scratch() {
    if (!arena_enabled()) return;
    auto& pool = tls();
    if (pool.size() >= kCap) return;
    obj_.clear();
    pool.push_back(std::move(obj_));
  }

  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;

  T& operator*() { return obj_; }
  T* operator->() { return &obj_; }
  const T& operator*() const { return obj_; }
  const T* operator->() const { return &obj_; }

 private:
  /// Deep fork trees check out a handful of logs per level; a small
  /// cap bounds idle capacity without starving reuse.
  static constexpr std::size_t kCap = 16;

  static std::vector<T>& tls() {
    thread_local std::vector<T> pool;
    return pool;
  }

  T obj_{};
};

/// Byte budget of the shared PlanCache LRU (BSMP_PLAN_CACHE_BYTES at
/// process start; 0 — the default — means unbounded, the seed
/// behavior). A malformed or negative value throws precondition_error
/// naming the variable (core::env_count).
std::size_t default_plan_cache_bytes();

}  // namespace bsmp::engine
