// The antichain fork protocol: how every fork point of the separator
// recursion and of the two-regime simulator runs a group of mutually
// independent pieces — the children of one equal-uppers run of
// Region::split_runs() (Prop. 2), the subtiles of one regime-2
// anti-diagonal, the machine tiles of one top-level wavefront
// (Sec. 4.2).
//
// fork_join() forks one piece per task into an engine::TaskScope
// tagged with the caller's engine::ForkPhase. Each piece runs against
// a private StagingShard over the enclosing store (reads fall through,
// writes stay local) and records its serial side effects — charges,
// deltas, phase steps — in a per-fork record checked out of the
// forking thread's engine::Scratch pool. The join walks the forks in
// canonical (fork) order under one `shard-merge` span: the caller's
// merge step folds each record into the caller's state, then the
// shard merges into the enclosing store. Canonical order makes the
// store state, every charged double and every replayed side effect
// bit-identical to running the pieces serially in that order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "engine/arena.hpp"
#include "engine/task.hpp"
#include "engine/trace.hpp"
#include "sep/staging.hpp"

namespace bsmp::sep {

/// Whether forks can run concurrently: a multi-slot
/// engine::TaskScheduler is ambient on the calling thread (a worker or
/// a bound caller of engine::Pool). Without one a TaskScope would run
/// every fork inline anyway, so fork points take their serial path and
/// skip the shard machinery entirely.
inline bool can_fork() {
  engine::TaskScheduler* s = engine::TaskScheduler::current();
  return s != nullptr && s->parallel();
}

/// Run pieces 0..n-1 of an antichain as one fork group over `store`
/// (a StagingStore<D, V> or an enclosing StagingShard<D, V>):
/// `body(i, shard, rec)` runs piece i on any thread against its own
/// shard and record; after the join, `merge(rec)` runs on the calling
/// thread for each fork in index order, followed by that fork's shard
/// merge into `store`. `Rec` needs a clear() (the engine::Scratch reset
/// hook).
template <int D, class V, class Rec, class Store, class Body, class Merge>
void fork_join(engine::ForkPhase phase, Store& store, std::size_t n,
               const Body& body, const Merge& merge) {
  struct Fork {
    engine::Scratch<Rec> rec;  // pooled on the forking thread
    std::optional<StagingShard<D, V>> shard;
  };
  std::vector<Fork> forks(n);
  for (Fork& fk : forks) fk.shard.emplace(overlay, store);
  engine::TaskScope scope(phase);
  for (std::size_t i = 0; i < n; ++i) {
    Fork& fk = forks[i];
    scope.fork([&body, &fk, i] { body(i, *fk.shard, *fk.rec); });
  }
  scope.join();
  engine::trace::Span merge_span(engine::trace::Cat::kTask, "shard-merge",
                                 static_cast<std::int64_t>(n));
  for (Fork& fk : forks) {
    merge(*fk.rec);
    fk.shard->merge_into(store);
  }
}

}  // namespace bsmp::sep
