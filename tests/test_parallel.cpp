// Runtime tests: thread pool, simulated MPI collectives (with byte
// accounting and sub-communicators), and the LPT scheduler.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <future>
#include <numeric>
#include <string>
#include <thread>

#include "parallel/comm.hpp"
#include "parallel/scheduler.hpp"
#include "parallel/thread_pool.hpp"

namespace q2::par {
namespace {

TEST(ThreadPool, ExecutesSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 100; ++i)
    futs.push_back(pool.submit([&] { counter.fetch_add(1); }));
  for (auto& f : futs) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool touched = false;
  pool.parallel_for(5, 5, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPool, PropagatesNothingOnDestruction) {
  // Destroying a pool with completed work must join cleanly (no deadlock).
  for (int round = 0; round < 5; ++round) {
    ThreadPool pool(2);
    pool.submit([] {}).get();
  }
  SUCCEED();
}

TEST(ThreadPool, ParallelForPropagatesBodyException) {
  // Regression: a throwing body used to rethrow from the first future while
  // other workers still referenced the by-ref fn (dangling reference / UB).
  // The exception must now surface only after every in-flight chunk retires.
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 100,
                        [](std::size_t i) {
                          if (i == 13) throw Error("boom at 13");
                        }),
      Error);
  // The pool must stay fully usable afterwards.
  std::atomic<int> counter{0};
  pool.parallel_for(0, 50, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, ParallelForFirstExceptionWinsAndWorkStops) {
  ThreadPool pool(2);
  std::atomic<int> executed{0};
  try {
    pool.parallel_for(0, 100000, [&](std::size_t) {
      executed.fetch_add(1);
      throw Error("every iteration throws");
    });
    FAIL() << "expected an exception";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "every iteration throws");
  }
  // Unclaimed iterations are abandoned once an exception is recorded.
  EXPECT_LT(executed.load(), 100000);
}

TEST(ThreadPool, NestedParallelForCompletesOnOneThreadPool) {
  // A worker (or caller) that hits a nested parallel_for must help run the
  // inner chunks instead of blocking on an empty queue — the old pool
  // deadlocked here.
  ThreadPool pool(1);
  std::atomic<int> inner_total{0};
  pool.parallel_for(0, 8, [&](std::size_t) {
    pool.parallel_for(0, 16,
                      [&](std::size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 8 * 16);
}

TEST(ThreadPool, NestedParallelForFromSubmittedTask) {
  // The fragment-solve shape: a submitted task starts its own parallel_for
  // on the same pool while the submitter waits on the future.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  std::vector<std::future<void>> futs;
  for (int t = 0; t < 4; ++t)
    futs.push_back(pool.submit([&] {
      pool.parallel_for(0, 32, [&](std::size_t) { total.fetch_add(1); });
    }));
  // Help drain while waiting: the submitting thread is outside the pool, so
  // it must not starve workers that are themselves inside parallel_for.
  for (auto& f : futs) {
    while (f.wait_for(std::chrono::milliseconds(0)) !=
           std::future_status::ready)
      pool.try_run_one();
    f.get();
  }
  EXPECT_EQ(total.load(), 4 * 32);
}

TEST(ThreadPool, DeeplyNestedParallelForCompletes) {
  ThreadPool pool(2);
  std::atomic<int> leaves{0};
  pool.parallel_for(0, 4, [&](std::size_t) {
    pool.parallel_for(0, 4, [&](std::size_t) {
      pool.parallel_for(0, 4, [&](std::size_t) { leaves.fetch_add(1); });
    });
  });
  EXPECT_EQ(leaves.load(), 4 * 4 * 4);
}

TEST(ThreadPool, ExceptionInsideNestedParallelForPropagates) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.parallel_for(0, 4,
                                 [&](std::size_t) {
                                   pool.parallel_for(
                                       0, 4, [&](std::size_t j) {
                                         if (j == 2) throw Error("inner");
                                       });
                                 }),
               Error);
}

TEST(ThreadPool, MaxThreadsCapsClaimants) {
  // max_threads=1 means the caller runs every chunk itself; concurrent
  // executions of the body must never exceed the cap.
  ThreadPool pool(4);
  std::atomic<int> concurrent{0}, peak{0};
  pool.parallel_for(
      0, 64,
      [&](std::size_t) {
        const int now = concurrent.fetch_add(1) + 1;
        int p = peak.load();
        while (now > p && !peak.compare_exchange_weak(p, now)) {
        }
        concurrent.fetch_sub(1);
      },
      /*max_threads=*/1);
  EXPECT_EQ(peak.load(), 1);
}

TEST(ParallelForOptions, SerialAndParallelCoverTheSameRange) {
  ParallelOptions serial;
  serial.n_threads = 1;
  ParallelOptions wide;
  wide.n_threads = 4;
  std::vector<std::atomic<int>> hits(257);
  parallel_for(serial, 0, 257, [&](std::size_t i) { hits[i].fetch_add(1); });
  parallel_for(wide, 0, 257, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 2);
}

TEST(ParallelForOptions, DefaultThreadsOverrideApplies) {
  // n_threads=0 resolves through the process default (the --threads= flag).
  set_default_threads(1);
  ParallelOptions opts;
  EXPECT_EQ(resolve_threads(opts), 1u);
  set_default_threads(3);
  EXPECT_EQ(resolve_threads(opts), 3u);
  set_default_threads(0);
  EXPECT_GE(resolve_threads(opts), 1u);
}

TEST(ParallelForOptions, ConfigureThreadsRejectsInvalidValues) {
  // Invalid --threads values must be stripped (shared flag parsing) but NOT
  // silently applied — the default stays, and a warning lands on stderr.
  set_default_threads(2);
  for (const char* bad : {"--threads=0", "--threads=-1", "--threads=abc",
                          "--threads=O4", "--threads="}) {
    char prog[] = "prog", flag[64], tail[] = "tail";
    std::strncpy(flag, bad, sizeof(flag) - 1);
    flag[sizeof(flag) - 1] = '\0';
    char* argv[] = {prog, flag, tail};
    int argc = 3;
    testing::internal::CaptureStderr();
    configure_threads_from_args(argc, argv);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("ignoring invalid --threads"), std::string::npos)
        << bad;
    EXPECT_EQ(argc, 2) << bad;  // flag stripped either way
    EXPECT_STREQ(argv[1], "tail");
    ParallelOptions opts;
    EXPECT_EQ(resolve_threads(opts), 2u) << bad;
  }
  // A valid value still applies without a warning.
  {
    char prog[] = "prog", flag[] = "--threads=3";
    char* argv[] = {prog, flag};
    int argc = 2;
    testing::internal::CaptureStderr();
    configure_threads_from_args(argc, argv);
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
    ParallelOptions opts;
    EXPECT_EQ(resolve_threads(opts), 3u);
  }
  set_default_threads(0);
}

TEST(ParallelForOptions, InvalidEnvThreadsWarnsOnceAndFallsThrough) {
  set_default_threads(0);
  ASSERT_EQ(setenv("Q2_THREADS", "not-a-number", 1), 0);
  ParallelOptions opts;
  testing::internal::CaptureStderr();
  const std::size_t resolved = resolve_threads(opts);
  const std::string first = testing::internal::GetCapturedStderr();
  EXPECT_NE(first.find("ignoring invalid Q2_THREADS"), std::string::npos);
  EXPECT_EQ(resolved, ThreadPool::global().size());  // env value ignored
  // Warn-once: the resolver runs on every dispatch, so repeats stay silent.
  testing::internal::CaptureStderr();
  resolve_threads(opts);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  unsetenv("Q2_THREADS");
}

TEST(Comm, BarrierAndRanks) {
  World world(5);
  std::atomic<int> max_rank{-1};
  world.run([&](Comm& comm) {
    EXPECT_EQ(comm.size(), 5);
    comm.barrier();
    int expect = max_rank.load();
    while (comm.rank() > expect &&
           !max_rank.compare_exchange_weak(expect, comm.rank())) {
    }
  });
  EXPECT_EQ(max_rank.load(), 4);
}

TEST(Comm, BroadcastFromRoot) {
  World world(4);
  world.run([&](Comm& comm) {
    std::vector<double> data(8, comm.rank() == 1 ? 3.25 : 0.0);
    comm.bcast(data, 1);
    for (double x : data) EXPECT_DOUBLE_EQ(x, 3.25);
  });
}

TEST(Comm, ReduceSumToRoot) {
  World world(6);
  std::atomic<double> result{0};
  world.run([&](Comm& comm) {
    const double value = comm.rank() + 1.0;  // 1..6 -> 21
    const double sum = comm.reduce_sum(value, 0);
    if (comm.rank() == 0) result.store(sum);
  });
  EXPECT_DOUBLE_EQ(result.load(), 21.0);
}

TEST(Comm, AllreduceVisibleEverywhere) {
  World world(4);
  std::atomic<int> correct{0};
  world.run([&](Comm& comm) {
    double v = 1.5;
    v = comm.allreduce_sum(v);
    if (v == 6.0) correct.fetch_add(1);
  });
  EXPECT_EQ(correct.load(), 4);
}

TEST(Comm, AllgatherOrdering) {
  World world(3);
  world.run([&](Comm& comm) {
    const auto all = comm.allgather(comm.rank() * 10);
    ASSERT_EQ(all.size(), 3u);
    EXPECT_EQ(all[0], 0);
    EXPECT_EQ(all[1], 10);
    EXPECT_EQ(all[2], 20);
  });
}

TEST(Comm, ReductionsSumInRankOrderOnEveryRank) {
  // Adversarial operands whose double sum depends on the addition order:
  // every rank's allreduce result and the root's reduce result must carry
  // the bits of the plain sum over ranks 0..n-1.
  for (int size : {3, 5, 6}) {
    const std::vector<double> operands = {1e16, 1.0, -1e16, 0.5, -1e16, 1e16};
    const std::vector<double> values(operands.begin(), operands.begin() + size);
    double in_order = values[0];
    for (int r = 1; r < size; ++r) in_order += values[std::size_t(r)];
    // The operands do catch a rank that adds its own value first.
    bool order_matters = false;
    for (int r = 1; r < size; ++r) {
      double own_first = values[std::size_t(r)];
      for (int q = 0; q < size; ++q)
        if (q != r) own_first += values[std::size_t(q)];
      order_matters = order_matters || own_first != in_order;
    }
    EXPECT_TRUE(order_matters) << "size=" << size;

    std::vector<double> all(static_cast<std::size_t>(size));
    std::vector<double> at_root(static_cast<std::size_t>(size));
    World(size).run([&](Comm& comm) {
      const std::size_t r = std::size_t(comm.rank());
      all[r] = comm.allreduce_sum(values[r]);
      // The root is the last rank, so its own value is not the first term.
      at_root[r] = comm.reduce_sum(values[r], size - 1);
    });
    for (int r = 0; r < size; ++r)
      EXPECT_EQ(std::memcmp(&all[std::size_t(r)], &in_order, sizeof(double)),
                0)
          << "size=" << size << " rank=" << r;
    EXPECT_EQ(std::memcmp(&at_root.back(), &in_order, sizeof(double)), 0)
        << "size=" << size;
  }
}

TEST(Comm, AllgathervConcatenatesInRankOrder) {
  World world(3);
  world.run([&](Comm& comm) {
    // Rank r contributes r+1 copies of r.
    const std::vector<int> mine(std::size_t(comm.rank() + 1), comm.rank());
    EXPECT_EQ(comm.allgatherv(mine), (std::vector<int>{0, 1, 1, 2, 2, 2}));
    EXPECT_EQ(comm.bytes_transferred(), (6 - mine.size()) * sizeof(int));
  });
}

TEST(Comm, RepeatedCollectivesStaySynchronized) {
  World world(4);
  world.run([&](Comm& comm) {
    double acc = 0;
    for (int it = 0; it < 50; ++it) {
      std::vector<double> params(3, comm.rank() == 0 ? double(it) : -1.0);
      comm.bcast(params, 0);
      EXPECT_DOUBLE_EQ(params[2], double(it));
      acc = comm.allreduce_sum(params[0]);
    }
    EXPECT_DOUBLE_EQ(acc, 4.0 * 49);
  });
}

TEST(Comm, ByteAccountingMatchesTraffic) {
  World world(2);
  world.run([&](Comm& comm) {
    std::vector<double> data(100, 1.0);
    comm.bcast(data, 0);
    if (comm.rank() == 1)
      EXPECT_EQ(comm.bytes_transferred(), 100 * sizeof(double));
    if (comm.rank() == 0) EXPECT_EQ(comm.bytes_transferred(), 0u);
  });
  EXPECT_EQ(world.total_bytes(), 100 * sizeof(double));
}

TEST(Comm, SplitFormsSubCommunicators) {
  World world(6);
  world.run([&](Comm& comm) {
    const int color = comm.rank() % 2;
    Comm sub = comm.split(color, comm.rank());
    EXPECT_EQ(sub.size(), 3);
    // Ranks ordered by key (= parent rank).
    const double sum = sub.allreduce_sum(double(comm.rank()));
    if (color == 0) EXPECT_DOUBLE_EQ(sum, 0 + 2 + 4);
    if (color == 1) EXPECT_DOUBLE_EQ(sum, 1 + 3 + 5);
  });
}

TEST(Comm, ExceptionOnRankPropagates) {
  World world(2);
  EXPECT_THROW(world.run([&](Comm& comm) {
    // Both ranks throw before any collective (no deadlock risk).
    throw Error("rank failure");
  }),
               Error);
}

// Runs `fn` on a World of `ranks` from a helper thread and returns what
// World::run rethrew as a message ("" if nothing). A run still blocked after
// 30 s has hung in a collective: the test fails and the process exits at
// once, since hung rank threads can be neither joined nor left running.
std::string run_failure_within_deadline(
    int ranks, const std::function<void(Comm&)>& fn) {
  std::promise<std::string> done;
  std::future<std::string> failure = done.get_future();
  std::thread runner([&] {
    try {
      World(ranks).run(fn);
      done.set_value("");
    } catch (const std::exception& e) {
      done.set_value(e.what());
    }
  });
  if (failure.wait_for(std::chrono::seconds(30)) !=
      std::future_status::ready) {
    ADD_FAILURE() << "World::run still blocked after 30 s";
    std::fflush(stdout);
    std::_Exit(1);
  }
  runner.join();
  return failure.get();
}

// Rank 1 throws while ranks 0, 2 and 3 wait for it in barrier(). They must
// be released, and the run must report rank 1's error, not the abort that
// the lower rank 0 saw.
TEST(Comm, RankFailureReleasesPeersWaitingInBarrier) {
  const auto fn = [](Comm& comm) {
    if (comm.rank() == 1) throw Error("rank 1 failed");
    comm.barrier();
  };
  EXPECT_EQ(run_failure_within_deadline(4, fn), "rank 1 failed");
}

// The abort reaches split() children too: rank 3 fails inside the odd
// sub-communicator, where rank 1 waits for it in an allreduce, while ranks
// 0 and 2 finish their own allreduce and wait in the world barrier.
TEST(Comm, RankFailureInSubCommunicatorReleasesTheWorld) {
  const auto fn = [](Comm& comm) {
    Comm sub = comm.split(comm.rank() % 2, comm.rank());
    if (comm.rank() == 3) throw Error("rank 3 failed");
    sub.allreduce_sum(1.0);
    comm.barrier();
  };
  EXPECT_EQ(run_failure_within_deadline(4, fn), "rank 3 failed");
}

TEST(Scheduler, LptBalancesUnevenTasks) {
  std::vector<double> costs = {10, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1};
  const Schedule s = lpt_schedule(costs, 2);
  EXPECT_DOUBLE_EQ(s.makespan, 10.0);
  EXPECT_NEAR(efficiency(s), 1.0, 1e-9);
}

TEST(Scheduler, LptBeatsRoundRobinOnSkewedCosts) {
  std::vector<double> costs;
  for (int i = 0; i < 64; ++i) costs.push_back(i % 8 == 0 ? 8.0 : 1.0);
  const Schedule lpt = lpt_schedule(costs, 8);
  const Schedule rr = round_robin_schedule(costs, 8);
  EXPECT_LE(lpt.makespan, rr.makespan);
  EXPECT_GE(efficiency(lpt), efficiency(rr) - 1e-12);
}

TEST(Scheduler, AssignmentIsCompleteAndConsistent) {
  std::vector<double> costs(37, 1.0);
  const Schedule s = lpt_schedule(costs, 5);
  std::vector<double> loads(5, 0.0);
  for (std::size_t i = 0; i < costs.size(); ++i) {
    ASSERT_LT(s.assignment[i], 5u);
    loads[s.assignment[i]] += costs[i];
  }
  for (std::size_t b = 0; b < 5; ++b)
    EXPECT_DOUBLE_EQ(loads[b], s.loads[b]);
  EXPECT_DOUBLE_EQ(std::accumulate(loads.begin(), loads.end(), 0.0), 37.0);
}

TEST(Scheduler, SingleBinMakespanIsTotal) {
  std::vector<double> costs = {1, 2, 3};
  const Schedule s = lpt_schedule(costs, 1);
  EXPECT_DOUBLE_EQ(s.makespan, 6.0);
}

TEST(Scheduler, EqualCostsScheduleDeterministically) {
  // Ties must break by task index (stable sort) and lowest bin index, so two
  // calls — and therefore every rank of a distributed run — agree exactly.
  std::vector<double> costs(23, 2.5);
  const Schedule a = lpt_schedule(costs, 4);
  const Schedule b = lpt_schedule(costs, 4);
  EXPECT_EQ(a.assignment, b.assignment);
  // With identical costs, LPT in index order deals tasks round-robin.
  for (std::size_t i = 0; i < costs.size(); ++i)
    EXPECT_EQ(a.assignment[i], i % 4) << "task " << i;
  EXPECT_EQ(lpt_assign(costs, 4), a.assignment);
}

}  // namespace
}  // namespace q2::par
