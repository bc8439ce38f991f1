// Persistent fork-join worker pool for campaign scheduling, and the one
// dynamic-claim loop every campaign path schedules its shards with.
//
// The sharded TraceEngine used to spawn a fresh std::thread set per
// campaign. For MTD-scale single campaigns that cost vanishes in the
// noise, but the engine's bread-and-butter workloads — per-style
// throughput tables, lane-width sweeps, SPICE calibration — run MANY
// short campaigns back to back, and on those the per-campaign
// create/join cycle (plus the first-touch page faults of brand-new
// stacks) was a measurable slice of why N threads failed to beat 1.
// This pool parks its threads between campaigns: run() hands a body to
// the parked workers, runs party 0 on the calling thread, and blocks
// until every party returns. Threads are grown on demand up to the
// largest party count ever requested and live for the pool's lifetime
// (the engine's lifetime — EnginePools owns one).
//
// Scheduling stays OUTSIDE the pool: parallel_for() below claims
// indices from one atomic counter — simulated shards, replayed shards,
// attack sets, merge-tree merges — and its optional caller role lets
// the calling thread do other work beside the claiming parties (the
// stream emitter). The pool itself is a plain barrier with no work
// queue of its own and adds nothing to the per-shard hot path.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sable {

class WorkerPool {
 public:
  WorkerPool() = default;
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Runs body(0), body(1), …, body(parties - 1) concurrently: party 0 on
  /// the calling thread, the rest on parked pool threads (grown on
  /// demand). Blocks until every party has returned. Exceptions: the
  /// calling party's exception wins, else the first worker exception is
  /// rethrown; either way every party is joined first, so `body` may
  /// safely capture locals by reference. parties <= 1 degenerates to a
  /// plain inline body(0) with no synchronization at all.
  ///
  /// Reentrancy: the parked threads serve one run() at a time. A second
  /// run() arriving while one is in flight (concurrent campaigns on one
  /// engine, or a body that itself calls run()) falls back to ephemeral
  /// threads for that call — correct, merely without the parking win.
  void run(std::size_t parties, const std::function<void(std::size_t)>& body);

 private:
  void worker_main(std::size_t index);
  static void run_ephemeral(std::size_t parties,
                            const std::function<void(std::size_t)>& body);

  // Serializes run() calls on the parked threads; try-locked so overlap
  // degrades to run_ephemeral instead of blocking a campaign.
  std::mutex run_mutex_;

  // Everything below is guarded by mutex_. A run is a "generation":
  // run() publishes the body and the participant count and bumps
  // generation_; workers with index <= participants_ wake, execute, and
  // decrement active_; the last decrement releases run() through
  // done_cv_.
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> threads_;  // threads_[i] is party index i + 1
  const std::function<void(std::size_t)>* body_ = nullptr;
  std::uint64_t generation_ = 0;
  std::size_t participants_ = 0;
  std::size_t active_ = 0;
  bool shutdown_ = false;
  std::exception_ptr error_;
};

/// Worker threads a scheduler resolves `requested` to: the request
/// itself, or the hardware concurrency (at least 1) for 0.
std::size_t resolve_thread_count(std::size_t requested);

/// The dynamic-claim loop: runs fn(ctx, i) exactly once for every i in
/// [0, n) on min(resolve_thread_count(threads), n) claiming parties of
/// `pool`. Each party builds its own context with make_ctx() (leased
/// simulators, scratch buffers) and claims indices from one shared atomic
/// counter, so the claim order is free: fn must only touch its ctx and
/// index-owned state. Without a caller, a single claiming party runs
/// inline on the calling thread, in index order.
///
/// A non-empty `caller` makes party 0 — the calling thread — run caller()
/// instead of claiming, concurrently with the claiming parties (alone and
/// inline when n == 0). Exceptions from any party propagate through
/// WorkerPool::run after every party has joined, the caller's first.
template <typename MakeCtx, typename Fn>
void parallel_for(WorkerPool& pool, std::size_t threads, std::size_t n,
                  MakeCtx&& make_ctx, Fn&& fn,
                  const std::function<void()>& caller = {}) {
  const std::size_t claimers = std::min(resolve_thread_count(threads), n);
  const std::size_t first = caller ? 1 : 0;
  if (claimers + first == 0) return;
  std::atomic<std::size_t> next{0};
  pool.run(claimers + first, [&](std::size_t party) {
    if (party < first) {
      caller();
      return;
    }
    auto ctx = make_ctx();
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      fn(ctx, i);
    }
  });
}

}  // namespace sable
