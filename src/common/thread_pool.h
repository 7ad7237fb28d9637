// Fixed-size thread pool with a blocking, statically chunked parallel loop.
//
// The paper (§6) accelerates head-wise KV-block indexing with multi-core CPU
// parallelization; this pool is the substrate for that (see
// kvcache/index_builder.*) and for the experiment harness's parallel sweeps
// (run_tasks).  The plan search is serial: its few groupings cost less than
// spawning the pool.  Static partitioning is used: index-building work items
// are uniform, so work stealing would buy nothing and cost cache traffic.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace hetis {

class ThreadPool {
 public:
  /// Spawns `threads` workers (defaults to hardware concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues a task; returns a future for its completion.
  std::future<void> submit(std::function<void()> fn);

  /// Runs fn(chunk_begin, chunk_end) over [begin, end) split into one
  /// static chunk per worker, and blocks until all chunks finish.
  /// Exceptions from the body propagate (first chunk's wins).
  void parallel_for_chunked(std::size_t begin, std::size_t end,
                            const std::function<void(std::size_t, std::size_t)>& fn);

  /// Runs fn(i) for i in [0, n) as n independently-scheduled tasks and
  /// blocks until all complete.  Unlike parallel_for_chunked's static chunks,
  /// tasks are pulled dynamically, so wildly uneven task costs (the
  /// experiment harness: later rate points take far longer) still balance.
  /// When bodies throw, the exception of the LOWEST index is rethrown --
  /// deterministic regardless of completion order.
  void run_tasks(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::packaged_task<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace hetis
