// Thread pool backing the sweep engine.
//
// A Pool owns `threads - 1` persistent worker threads and the
// work-stealing fork-join scheduler they serve (engine/task.hpp): every
// worker binds one TaskScheduler deque slot for its lifetime and runs
// TaskScheduler::work, and the caller of parallel_for is the remaining
// executor on slot 0. So Pool(k) runs a sweep on exactly k threads, and
// Pool(1) has no workers and runs every index inline, in index order, on
// the calling thread — the reference execution the conformance tests
// compare against.
//
// parallel_for(n, body) is one TaskScope: it forks body(i) for every
// i in [0, n) and joins. The joining caller runs its own forks newest
// first while idle workers steal the older half, and the call blocks
// until every index has completed. Exceptions thrown by body are
// captured; after all indices have run, the exception of the
// *lowest-index* failing point is rethrown, so error reporting is
// deterministic regardless of thread interleaving.
//
// Parallelism nests:
//   * code running on a pool thread may open its own engine::TaskScope
//     and fork subtasks into the same worker set (the separator
//     executor does this per recursion node);
//   * a parallel_for made from a pool thread (a body calling back into
//     its own pool) keeps that thread's slot and forks into the same
//     scheduler, so it cannot deadlock;
//   * bind_caller() hands the calling thread slot 0 so fork-join work
//     can be driven without a surrounding parallel_for.
#pragma once

#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "engine/task.hpp"

namespace bsmp::engine {

class Pool {
 public:
  /// `threads <= 0` uses hardware_threads().
  explicit Pool(int threads = 0);
  ~Pool();

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// Total executors (workers + the calling thread of parallel_for).
  int size() const { return size_; }

  /// Run body(i) for every i in [0, n); blocks until all complete. A
  /// thread not already on this pool binds slot 0 for the call.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body);

  /// Bind the calling thread to the pool's task scheduler (slot 0, the
  /// parallel_for caller's slot) so TaskScope forks made on this thread
  /// are executed by the pool's workers. Intended for driving fork-join
  /// work directly, without a parallel_for; at most one thread may hold
  /// the binding at a time — a second thread binding slot 0 (including
  /// via parallel_for) throws precondition_error rather than silently
  /// sharing the caller's deque.
  [[nodiscard]] TaskScheduler::Bind bind_caller() {
    return TaskScheduler::Bind(&sched_, 0);
  }

  /// Counters of the pool's fork-join layer (tasks spawned / inlined,
  /// steals, join waits) — the `tasks` block of the metrics artifact.
  TaskStats task_stats() const { return sched_.stats(); }
  void reset_task_stats() { sched_.reset_stats(); }

  /// std::thread::hardware_concurrency, never less than 1.
  static int hardware_threads();

 private:
  int size_ = 1;
  TaskScheduler sched_;
  std::vector<std::thread> workers_;
};

}  // namespace bsmp::engine
