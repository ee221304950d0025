#include "engine/arena.hpp"

#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <new>

#include "core/args.hpp"
#include "engine/trace.hpp"

namespace bsmp::engine {

namespace {

std::atomic<bool>& arena_flag() {
  static std::atomic<bool> flag = [] {
    const char* env = std::getenv("BSMP_ARENA");
    return env == nullptr || (std::strcmp(env, "0") != 0 &&
                              std::strcmp(env, "off") != 0);
  }();
  return flag;
}

// Power-of-two size classes from 64 B up; index = log2 of the class.
constexpr std::size_t kMinClassLog = 6;
constexpr std::size_t kNumClasses = 48;

std::size_t class_of(std::size_t bytes) {
  std::size_t lg = std::bit_width(bytes - 1);
  return lg < kMinClassLog ? kMinClassLog : lg;
}

}  // namespace

bool arena_enabled() {
  return arena_flag().load(std::memory_order_relaxed);
}

void set_arena_enabled(bool on) {
  arena_flag().store(on, std::memory_order_relaxed);
}

std::size_t default_plan_cache_bytes() {
  static const std::size_t bytes =
      static_cast<std::size_t>(core::env_count("BSMP_PLAN_CACHE_BYTES", 0));
  return bytes;
}

struct Arena::Impl {
  // Blocks a thread keeps to itself (lock-free reuse); overflow and
  // thread exit drain into the global pool.
  static constexpr std::size_t kThreadCap = 4;  // blocks per class
  // The global pool stops retaining beyond this (slabs free instead):
  // a backstop against pathological growth, not a working-set budget.
  static constexpr std::size_t kMaxHeldBytes = std::size_t{512} << 20;

  struct Pool {
    std::mutex mu;
    std::vector<void*> cls[kNumClasses];
  };
  Pool pool;

  std::atomic<std::uint64_t> cold_allocs{0};
  std::atomic<std::uint64_t> slab_reuses{0};
  std::atomic<std::uint64_t> releases{0};
  std::atomic<std::uint64_t> scratch_checkouts{0};
  std::atomic<std::uint64_t> scratch_cold{0};
  std::atomic<std::uint64_t> bytes_held{0};
  std::atomic<std::uint64_t> bytes_live{0};
  std::atomic<std::uint64_t> peak_bytes{0};

  void note_peak() {
    std::uint64_t total = bytes_held.load(std::memory_order_relaxed) +
                          bytes_live.load(std::memory_order_relaxed);
    std::uint64_t peak = peak_bytes.load(std::memory_order_relaxed);
    while (total > peak &&
           !peak_bytes.compare_exchange_weak(peak, total,
                                             std::memory_order_relaxed)) {
    }
  }

  // Per-thread free lists. The destructor drains into the global pool
  // so a worker's cached slabs outlive the worker.
  struct ThreadCache {
    Impl* owner = nullptr;
    std::vector<void*> cls[kNumClasses];

    ~ThreadCache() {
      if (owner == nullptr) return;
      std::lock_guard<std::mutex> lk(owner->pool.mu);
      for (std::size_t c = 0; c < kNumClasses; ++c)
        for (void* p : cls[c]) owner->pool.cls[c].push_back(p);
    }
  };

  ThreadCache& cache() {
    thread_local ThreadCache tc;
    tc.owner = this;
    return tc;
  }

  void* pop(std::size_t c, std::size_t class_bytes) {
    ThreadCache& tc = cache();
    if (!tc.cls[c].empty()) {
      void* p = tc.cls[c].back();
      tc.cls[c].pop_back();
      bytes_held.fetch_sub(class_bytes, std::memory_order_relaxed);
      return p;
    }
    std::lock_guard<std::mutex> lk(pool.mu);
    if (pool.cls[c].empty()) return nullptr;
    void* p = pool.cls[c].back();
    pool.cls[c].pop_back();
    bytes_held.fetch_sub(class_bytes, std::memory_order_relaxed);
    return p;
  }

  void push(std::size_t c, std::size_t class_bytes, void* p) {
    if (bytes_held.load(std::memory_order_relaxed) + class_bytes >
        kMaxHeldBytes) {
      ::operator delete(p);
      return;
    }
    bytes_held.fetch_add(class_bytes, std::memory_order_relaxed);
    ThreadCache& tc = cache();
    if (tc.cls[c].size() < kThreadCap) {
      tc.cls[c].push_back(p);
      return;
    }
    std::lock_guard<std::mutex> lk(pool.mu);
    pool.cls[c].push_back(p);
  }
};

Arena& Arena::instance() {
  // Leaky singleton: worker ThreadCache destructors may run at any
  // point of process teardown and must find the pool alive.
  static Arena* arena = new Arena();
  return *arena;
}

Arena::Impl& Arena::impl() {
  static Impl* impl = new Impl();
  return *impl;
}

Arena::Block Arena::acquire(std::size_t bytes) {
  if (bytes == 0) return Block{};
  Impl& im = impl();
  const std::size_t c = class_of(bytes);
  const std::size_t class_bytes = std::size_t{1} << c;
  Block b;
  b.bytes = class_bytes;
  if (arena_enabled()) {
    if (void* p = im.pop(c, class_bytes)) {
      b.data = p;
      b.recycled = true;
      im.slab_reuses.fetch_add(1, std::memory_order_relaxed);
      im.bytes_live.fetch_add(class_bytes, std::memory_order_relaxed);
      im.note_peak();
      return b;
    }
  }
  b.data = ::operator new(class_bytes);
  b.recycled = false;
  im.cold_allocs.fetch_add(1, std::memory_order_relaxed);
  im.bytes_live.fetch_add(class_bytes, std::memory_order_relaxed);
  im.note_peak();
  trace::instant(trace::Cat::kTask, "arena-cold",
                 static_cast<std::int64_t>(class_bytes));
  return b;
}

void Arena::release(Block b) {
  if (b.data == nullptr) return;
  Impl& im = impl();
  im.releases.fetch_add(1, std::memory_order_relaxed);
  im.bytes_live.fetch_sub(b.bytes, std::memory_order_relaxed);
  if (!arena_enabled()) {
    ::operator delete(b.data);
    return;
  }
  im.push(class_of(b.bytes), b.bytes, b.data);
}

ArenaStats Arena::stats() const {
  Impl& im = const_cast<Arena*>(this)->impl();
  ArenaStats s;
  s.cold_allocs = im.cold_allocs.load(std::memory_order_relaxed);
  s.slab_reuses = im.slab_reuses.load(std::memory_order_relaxed);
  s.releases = im.releases.load(std::memory_order_relaxed);
  s.scratch_checkouts = im.scratch_checkouts.load(std::memory_order_relaxed);
  s.scratch_cold = im.scratch_cold.load(std::memory_order_relaxed);
  s.bytes_held = im.bytes_held.load(std::memory_order_relaxed);
  s.bytes_live = im.bytes_live.load(std::memory_order_relaxed);
  s.peak_bytes = im.peak_bytes.load(std::memory_order_relaxed);
  return s;
}

void Arena::trim() {
  Impl& im = impl();
  Impl::ThreadCache& tc = im.cache();
  for (std::size_t c = 0; c < kNumClasses; ++c) {
    const std::size_t class_bytes = std::size_t{1} << c;
    for (void* p : tc.cls[c]) {
      ::operator delete(p);
      im.bytes_held.fetch_sub(class_bytes, std::memory_order_relaxed);
    }
    tc.cls[c].clear();
  }
  std::lock_guard<std::mutex> lk(im.pool.mu);
  for (std::size_t c = 0; c < kNumClasses; ++c) {
    const std::size_t class_bytes = std::size_t{1} << c;
    for (void* p : im.pool.cls[c]) {
      ::operator delete(p);
      im.bytes_held.fetch_sub(class_bytes, std::memory_order_relaxed);
    }
    im.pool.cls[c].clear();
  }
}

void Arena::prime_thread() {
  impl().cache();
}

void Arena::note_scratch(bool cold) {
  Impl& im = impl();
  im.scratch_checkouts.fetch_add(1, std::memory_order_relaxed);
  if (cold) im.scratch_cold.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace bsmp::engine
