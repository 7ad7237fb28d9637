#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

namespace hetis {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

std::future<void> ThreadPool::submit(std::function<void()> fn) {
  std::packaged_task<void()> task(std::move(fn));
  std::future<void> fut = task.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
  }
  cv_.notify_one();
  return fut;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();  // packaged_task captures exceptions into the future
  }
}

void ThreadPool::parallel_for_chunked(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t nchunks = std::min(n, size());
  if (nchunks <= 1) {
    fn(begin, end);
    return;
  }
  const std::size_t chunk = (n + nchunks - 1) / nchunks;
  std::vector<std::future<void>> futs;
  futs.reserve(nchunks);
  for (std::size_t c = 0; c < nchunks; ++c) {
    std::size_t lo = begin + c * chunk;
    std::size_t hi = std::min(end, lo + chunk);
    if (lo >= hi) break;
    futs.push_back(submit([&fn, lo, hi] { fn(lo, hi); }));
  }
  std::exception_ptr first_error;
  for (auto& f : futs) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

void ThreadPool::run_tasks(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (n == 1 || size() == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::vector<std::future<void>> futs;
  futs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    futs.push_back(submit([&fn, i] { fn(i); }));
  }
  // Every future is drained before rethrowing (tasks reference fn), and
  // iterating in index order makes the surviving exception the lowest
  // index's, independent of which task failed first on the wall clock.
  std::exception_ptr first_error;
  for (auto& f : futs) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace hetis
