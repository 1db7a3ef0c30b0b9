#include "src/base/thread_pool.h"

#include <algorithm>

namespace sb {

ThreadPool::ThreadPool(int num_threads) {
  int count = num_threads;
  if (count < 0) {
    const unsigned hc = std::thread::hardware_concurrency();
    count = hc > 1 ? static_cast<int>(std::min(hc - 1, 7u)) : 0;
  }
  workers_.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& w : workers_) {
    w.join();
  }
}

void ThreadPool::Drain(Job& job) {
  for (;;) {
    const size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.n) {
      return;
    }
    (*job.fn)(i);
    job.done.fetch_add(1, std::memory_order_release);
  }
}

void ThreadPool::WorkerLoop() {
  uint64_t seen_gen = 0;
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      wake_.wait(lock, [&] { return stop_ || (job_ != nullptr && job_gen_ != seen_gen); });
      if (stop_) {
        return;
      }
      job = job_;
      seen_gen = job_gen_;
      ++active_;
    }
    Drain(*job);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
    }
    done_cv_.notify_all();
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (workers_.empty() || n <= 1) {
    for (size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  std::lock_guard<std::mutex> submit_lock(submit_mu_);
  Job job;
  job.fn = &fn;
  job.n = n;
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = &job;
    ++job_gen_;
  }
  wake_.notify_all();
  Drain(job);
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Retract the job so late-waking workers go back to sleep, then wait for
    // every worker that did pick it up to leave it (they may still be inside
    // Drain touching the stack-allocated Job).
    job_ = nullptr;
    done_cv_.wait(lock, [&] {
      return active_ == 0 && job.done.load(std::memory_order_acquire) == job.n;
    });
  }
}

}  // namespace sb
