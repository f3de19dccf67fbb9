#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace q2::par {
namespace {

obs::Counter& submitted_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("pool.tasks_submitted");
  return c;
}
obs::Counter& executed_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("pool.tasks_executed");
  return c;
}
obs::Counter& parallel_for_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("pool.parallel_for_calls");
  return c;
}
obs::Counter& chunk_counter() {
  static obs::Counter& c = obs::Registry::global().counter("pool.chunks_run");
  return c;
}
/// Threads currently executing parallel_for chunks (workers and helping
/// callers alike) — the pool-occupancy signal run reports sample.
obs::Gauge& occupancy_gauge() {
  static obs::Gauge& g = obs::Registry::global().gauge("pool.active_chunks");
  return g;
}
std::size_t env_threads() {
  const char* s = std::getenv("Q2_THREADS");
  if (!s || !*s) return 0;
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || v <= 0) {
    // Warn once: this resolver runs on every parallel_for dispatch.
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true))
      std::fprintf(stderr,
                   "q2: ignoring invalid Q2_THREADS='%s' (want a positive "
                   "integer)\n",
                   s);
    return 0;
  }
  return std::size_t(v);
}

std::atomic<std::size_t> g_default_threads{0};

}  // namespace

std::size_t resolve_threads(const ParallelOptions& opts) {
  if (opts.n_threads > 0) return opts.n_threads;
  const std::size_t def = g_default_threads.load(std::memory_order_relaxed);
  if (def > 0) return def;
  const std::size_t env = env_threads();
  if (env > 0) return env;
  return ThreadPool::global().size();
}

void set_default_threads(std::size_t n) {
  g_default_threads.store(n, std::memory_order_relaxed);
}

void configure_threads_from_args(int& argc, char** argv) {
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--threads=", 0) == 0) {
      const char* val = arg.c_str() + 10;
      char* end = nullptr;
      const long v = std::strtol(val, &end, 10);
      if (end == val || *end != '\0' || v <= 0) {
        // The flag used to vanish silently (removed from argv, no effect) —
        // a typo like --threads=O4 ran the whole sweep single-threaded.
        std::fprintf(stderr,
                     "q2: ignoring invalid --threads='%s' (want a positive "
                     "integer)\n",
                     val);
      } else {
        set_default_threads(std::size_t(v));
      }
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
}

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  parking_ = std::make_unique<Parking[]>(num_threads);
  idle_.reserve(num_threads);
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i)
    workers_.emplace_back([this, i] {
      obs::set_thread_tag("worker" + std::to_string(i));
      worker_loop(i);
    });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    for (const std::size_t i : idle_) parking_[i].woken = true;
    idle_.clear();
  }
  for (std::size_t i = 0; i < workers_.size(); ++i)
    parking_[i].cv.notify_one();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  submitted_counter().add();
  std::packaged_task<void()> pt(std::move(task));
  std::future<void> fut = pt.get_future();
  Parking* wake = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push(std::move(pt));
    if (!idle_.empty()) {
      wake = &parking_[idle_.back()];
      idle_.pop_back();
      wake->woken = true;
    }
  }
  if (wake) wake->cv.notify_one();
  return fut;
}

bool ThreadPool::try_run_one() {
  std::packaged_task<void()> task;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (tasks_.empty()) return false;
    task = std::move(tasks_.front());
    tasks_.pop();
  }
  {
    OBS_SPAN_TRACE_ONLY("pool/task");
    task();
  }
  executed_counter().add();
  return true;
}

// Shared state of one parallel_for: a dynamic index counter plus completion
// and error tracking. Helpers and the caller all claim through the same
// atomics, one index (one chunk) per claim; the loop is over when the range
// is exhausted AND no chunk is still executing.
struct ThreadPool::LoopState {
  std::atomic<std::size_t> next;
  std::size_t end;
  const std::function<void(std::size_t)>* fn;
  std::atomic<std::size_t> active{0};  ///< chunks currently executing
  /// Caller's open-span path at dispatch: claimants adopt it so their
  /// pool/chunk spans aggregate under the dispatching node whichever thread
  /// runs them.
  obs::ProfilePath profile_path;
  std::mutex m;
  std::condition_variable done_cv;
  std::exception_ptr error;  ///< first exception thrown by a chunk

  bool complete() const {
    return next.load(std::memory_order_acquire) >= end &&
           active.load(std::memory_order_acquire) == 0;
  }
};

void ThreadPool::run_chunks(LoopState& st) {
  obs::ScopedPathAdoption adopt(st.profile_path);
  for (;;) {
    // Claim-then-mark-active would race completion (claimed but not yet
    // active looks idle), so mark active first and undo on a failed claim.
    st.active.fetch_add(1, std::memory_order_acq_rel);
    const std::size_t i = st.next.fetch_add(1);
    if (i >= st.end) {
      if (st.active.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lk(st.m);
        st.done_cv.notify_all();
      }
      return;
    }
    occupancy_gauge().add(1.0);
    chunk_counter().add();
    try {
      OBS_SPAN_TRACE_ONLY("pool/chunk");
      (*st.fn)(i);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lk(st.m);
        if (!st.error) st.error = std::current_exception();
      }
      // Abandon unclaimed iterations so the loop winds down promptly.
      st.next.store(st.end, std::memory_order_release);
    }
    occupancy_gauge().add(-1.0);
    if (st.active.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
        st.next.load(std::memory_order_acquire) >= st.end) {
      std::lock_guard<std::mutex> lk(st.m);
      st.done_cv.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn,
                              std::size_t max_threads) {
  if (begin >= end) return;
  parallel_for_counter().add();

  auto st = std::make_shared<LoopState>();
  st->next.store(begin, std::memory_order_relaxed);
  st->end = end;
  st->fn = &fn;
  st->profile_path = obs::current_profile_path();

  // One claimant is the caller itself; the rest are pool helpers. Helpers
  // hold st alive via the shared_ptr so an early-returning caller (exception
  // path) can never dangle — but the barrier below means st outlives them
  // anyway.
  std::size_t claimants = std::min(size() + 1, end - begin);
  if (max_threads > 0) claimants = std::min(claimants, max_threads);
  for (std::size_t w = 1; w < claimants; ++w)
    submit([st] { run_chunks(*st); });

  run_chunks(*st);

  // Barrier: every claimed chunk must retire before we return (or rethrow) —
  // fn and st stay valid for stragglers. While waiting, help drain the pool
  // queue so nested parallel_for loops (and our own queued helpers) progress
  // even when every worker is blocked in a wait like this one.
  while (!st->complete()) {
    if (try_run_one()) continue;
    std::unique_lock<std::mutex> lk(st->m);
    // Timed wait: a task enqueued between the try_run_one miss and this wait
    // would otherwise be missed until a chunk retires.
    st->done_cv.wait_for(lk, std::chrono::milliseconds(1),
                         [&] { return st->complete(); });
  }
  // Take the error out of st before rethrowing, so the exception is released
  // on this thread. A helper task may hold st past the barrier; releasing the
  // exception there is ordered only by libstdc++'s internal reference count,
  // which ThreadSanitizer cannot see, and it reports a race.
  if (std::exception_ptr error = std::move(st->error))
    std::rethrow_exception(error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool([] {
    const std::size_t env = env_threads();
    if (env > 0) return env;
    return std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }());
  return pool;
}

void ThreadPool::worker_loop(std::size_t index) {
  Parking& parking = parking_[index];
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      while (!stopping_ && tasks_.empty()) {
        parking.woken = false;
        idle_.push_back(index);
        parking.cv.wait(lock, [&] { return parking.woken; });
      }
      if (stopping_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    {
      OBS_SPAN_TRACE_ONLY("pool/task");
      task();
    }
    executed_counter().add();
  }
}

void parallel_for(const ParallelOptions& opts, std::size_t begin,
                  std::size_t end, const std::function<void(std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t n = resolve_threads(opts);
  if (n <= 1 || end - begin == 1) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  ThreadPool::global().parallel_for(begin, end, fn, n);
}

}  // namespace q2::par
