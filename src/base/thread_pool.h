// A small fixed-size worker pool for data-parallel chunked work.
//
// SkyBridge uses it to fan the registration-time code-page scans out across
// host cores (the sanctioned slow path, paper Table 6); the IPC fast path
// never touches it. ParallelFor is deterministic from the caller's point of
// view: every index runs exactly once and the caller blocks until all are
// done, so callers that bucket results per index get schedule-independent
// output.

#ifndef SRC_BASE_THREAD_POOL_H_
#define SRC_BASE_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sb {

class ThreadPool {
 public:
  // A negative `num_threads` sizes the pool to the hardware concurrency
  // minus the calling thread (capped at 7 workers). A pool with zero workers
  // is valid: ParallelFor then runs everything on the caller, in order.
  explicit ThreadPool(int num_threads = -1);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  // Runs fn(i) for every i in [0, n), fanning out across the workers and the
  // calling thread, and blocks until all indices have completed. Which
  // thread runs which index is schedule-dependent and deliberately not
  // reported. Safe to call from multiple threads (calls are serialized).
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

 private:
  struct Job {
    const std::function<void(size_t)>* fn = nullptr;
    size_t n = 0;
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
  };

  // Claims and runs indices until the job is exhausted.
  static void Drain(Job& job);
  void WorkerLoop();

  std::mutex submit_mu_;  // Serializes ParallelFor callers.
  std::mutex mu_;
  std::condition_variable wake_;
  std::condition_variable done_cv_;
  Job* job_ = nullptr;       // Guarded by mu_.
  uint64_t job_gen_ = 0;     // Guarded by mu_.
  size_t active_ = 0;        // Workers currently draining; guarded by mu_.
  bool stop_ = false;        // Guarded by mu_.
  std::vector<std::thread> workers_;
};

}  // namespace sb

#endif  // SRC_BASE_THREAD_POOL_H_
