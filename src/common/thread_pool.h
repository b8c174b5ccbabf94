// Work-stealing thread pool with a deterministic parallel_for helper.
//
// Determinism contract (see DESIGN.md "Parallel execution"): every parallel
// construct in sompi is written so the RESULT is a pure function of its
// inputs, never of the schedule. parallel_for hands out disjoint indices,
// and each body writes only its own slot. Same inputs ⇒ same bits at
// threads = 1, 2, or 64.
//
// The `threads` convention used across the codebase:
//   0 → hardware concurrency, 1 → serial inline (the pool is never touched),
//   t → at most t participants (the calling thread plus pool workers).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sompi {

/// std::thread::hardware_concurrency clamped to >= 1.
unsigned hardware_threads();

/// The threads knob: 0 → hardware_threads(), anything else unchanged.
unsigned resolve_threads(unsigned requested);

/// A pool of persistent worker threads. Parallel ranges are published as
/// jobs; idle workers steal pending indices from the oldest job that still
/// has work and a free participant slot, while the publishing thread always
/// participates in its own job. Because a caller drains its own range when
/// every worker is busy, nested parallel_for calls (a parallel body that
/// itself goes parallel) cannot deadlock.
class ThreadPool {
 public:
  /// Spawns `workers` persistent threads (0 is allowed: every range is then
  /// drained by its caller).
  explicit ThreadPool(unsigned workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned workers() const { return static_cast<unsigned>(threads_.size()); }

  /// Runs body(i) for every i in [0, n), using the calling thread plus at
  /// most max_participants - 1 pool workers. Blocks until every index has
  /// finished. If any body throws, the exception thrown by the
  /// lowest-claimed index is rethrown here and the remaining unclaimed
  /// indices are skipped. Safe to call from inside another job's body.
  void for_each_index(std::size_t n, unsigned max_participants,
                      const std::function<void(std::size_t)>& body);

  /// Process-wide pool used by the parallel_for helper.
  /// Sized so that determinism tests exercise real interleaving even on
  /// single-core machines (oversubscription is harmless for correctness).
  static ThreadPool& shared();

 private:
  struct Job;

  void worker_loop();
  /// Claims indices from `job` until the range is exhausted.
  void participate(Job& job);

  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable work_cv_;  ///< workers: "a job may have work"
  std::condition_variable done_cv_;  ///< callers: "a worker left a job"
  std::vector<Job*> jobs_;           ///< published, possibly unfinished jobs
  bool stop_ = false;
};

/// Runs body(i) for i in [0, n) with the given threads knob (0 = hardware,
/// 1 = serial inline on the calling thread). The parallel path uses
/// ThreadPool::shared(). Exceptions propagate; the one from the
/// lowest-claimed index wins.
void parallel_for(std::size_t n, unsigned threads,
                  const std::function<void(std::size_t)>& body);

}  // namespace sompi
