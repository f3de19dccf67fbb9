// Fixed-size worker pool with a shared task queue, plus a parallel_for
// convenience. This is the repo's analogue of OpenMP worksharing: it backs
// the CPE-cluster runtime, the rank-per-thread simulated MPI, and the
// on-node hot loops (Pauli-term sweeps, parameter-shift gradients, DMET
// fragment solves).
//
// parallel_for is nesting-safe: the calling thread claims chunks itself
// (caller-runs) and, once the range is exhausted, helps drain the pool's
// queue while waiting for in-flight chunks — so a worker that starts a
// nested parallel_for makes progress instead of deadlocking, even on a
// one-thread pool. If the body throws, every in-flight chunk finishes
// before the first exception is rethrown on the caller.
//
// A submitted task wakes the most recently idled worker (LIFO), not
// whichever waiter the OS picks: back-to-back dispatches — a GEMM's B-pack
// and tile phases, the next product in a loop — then land on a worker whose
// core and thread-local packing buffers are still warm, instead of rotating
// through every worker in turn.
#pragma once

#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "parallel/parallel_options.hpp"

namespace q2::par {

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueue a task; the future resolves when it completes.
  std::future<void> submit(std::function<void()> task);

  /// Run fn(i) for i in [begin, end) across the pool and wait for completion.
  /// Claimants take one index at a time, at most `max_threads` of them at
  /// once (0: the pool plus the caller). The caller participates; safe to
  /// call from inside a pool task. If fn throws, the first exception is
  /// rethrown here after all chunks retire (remaining unclaimed iterations
  /// are abandoned).
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn,
                    std::size_t max_threads = 0);

  /// Pop and execute one queued task on the calling thread. Returns false if
  /// the queue was empty. Used internally to help while waiting; exposed for
  /// tests.
  bool try_run_one();

  /// Process-wide pool sized to Q2_THREADS (else the hardware); lazily
  /// constructed.
  static ThreadPool& global();

 private:
  struct LoopState;
  /// Where an idle worker sleeps: its own condition variable, so submit can
  /// wake one chosen worker. `woken` is set (under mutex_) only by whoever
  /// takes the worker off idle_, so spurious wakeups go back to sleep.
  struct Parking {
    std::condition_variable cv;
    bool woken = false;
  };

  void worker_loop(std::size_t index);
  static void run_chunks(LoopState& st);

  std::unique_ptr<Parking[]> parking_;
  std::vector<std::thread> workers_;
  std::queue<std::packaged_task<void()>> tasks_;
  /// Idle workers, most recently idled last; guarded by mutex_.
  std::vector<std::size_t> idle_;
  std::mutex mutex_;
  bool stopping_ = false;
};

/// Options-driven entry point for the on-node hot loops: resolves the thread
/// count (explicit > Q2_THREADS > pool size), runs fn(i) serially on the
/// calling thread when it resolves to 1, and otherwise fans out on the global
/// pool with at most that many concurrent claimants, each claiming one index
/// at a time. Which thread runs an index never affects results: bodies write
/// per-index slots and reductions combine in index order.
void parallel_for(const ParallelOptions& opts, std::size_t begin,
                  std::size_t end, const std::function<void(std::size_t)>& fn);

}  // namespace q2::par
