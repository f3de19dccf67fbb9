#include "parallel/comm.hpp"

#include <algorithm>
#include <exception>
#include <string>
#include <thread>

#include "common/timer.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/report.hpp"

namespace q2::par {

void Comm::rendezvous(bool abortable) {
  auto& st = *state_;
  auto& sync = *st.sync;
  std::unique_lock<std::mutex> lock(sync.mutex);
  // The flag is read under the lock that completes a wait, so every rank of
  // one wait either passes it or throws.
  if (abortable && sync.aborted) throw CommAborted();
  const std::uint64_t gen = st.generation;
  if (++st.arrived == st.size) {
    st.arrived = 0;
    ++st.generation;
    sync.cv.notify_all();
  } else {
    sync.cv.wait(lock, [&] {
      return st.generation != gen || (abortable && sync.aborted);
    });
    if (st.generation == gen) throw CommAborted();
  }
}

void Comm::bcast_bytes(void* data, std::size_t nbytes, int root) {
  detail::comm_bcast_ops().add();
  auto& st = *state_;
  if (rank_ == root) st.bcast_ptr = data;
  barrier();
  if (rank_ != root) {
    std::memcpy(data, st.bcast_ptr, nbytes);
    account(nbytes);
  }
  // Keep the root's buffer alive until every rank copied.
  rendezvous(/*abortable=*/false);
}

void Comm::collect_slots(const void* ptr) {
  state_->slots[rank_] = ptr;
  barrier();
}

Comm Comm::split(int color, int key) {
  auto& st = *state_;
  st.split_keys[rank_] = {color, key};
  barrier();

  // Every rank deterministically computes the same grouping.
  std::vector<int> members;
  for (int r = 0; r < st.size; ++r)
    if (st.split_keys[r].first == color) members.push_back(r);
  std::stable_sort(members.begin(), members.end(), [&](int a, int b) {
    return st.split_keys[a].second < st.split_keys[b].second;
  });
  const int new_rank =
      int(std::find(members.begin(), members.end(), rank_) - members.begin());

  {
    std::lock_guard<std::mutex> lock(st.sync->mutex);
    if (!st.split_children.count(color)) {
      st.split_children[color] =
          std::make_shared<detail::CommState>(int(members.size()), st.sync);
    }
  }
  barrier();
  auto child = st.split_children[color];
  barrier();
  // Rank 0 of the parent clears the table so split() can be called again.
  if (rank_ == 0) st.split_children.clear();
  barrier();
  return Comm(child, new_rank);
}

void World::run(const std::function<void(Comm&)>& fn) const {
  auto sync = std::make_shared<detail::WorldSync>();
  auto state = std::make_shared<detail::CommState>(size_, sync);
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(size_);
  std::vector<double> rank_seconds(size_, 0.0);
  threads.reserve(size_);
  for (int r = 0; r < size_; ++r) {
    threads.emplace_back([&, r] {
      obs::set_thread_tag("rank" + std::to_string(r));
      Comm comm(state, r);
      Timer timer;
      try {
        fn(comm);
      } catch (...) {
        errors[r] = std::current_exception();
        {
          std::lock_guard<std::mutex> lock(sync->mutex);
          sync->aborted = true;
        }
        sync->cv.notify_all();
      }
      rank_seconds[r] = timer.seconds();
    });
  }
  for (auto& t : threads) t.join();
  total_bytes_ = 0;
  for (auto b : state->bytes) total_bytes_ += b;

  // Per-rank phase attribution: max/min/mean wall time and the imbalance
  // ratio (slowest over mean; 1.0 = perfectly balanced ranks).
  double max_s = 0.0, min_s = rank_seconds[0], sum_s = 0.0;
  for (const double s : rank_seconds) {
    max_s = std::max(max_s, s);
    min_s = std::min(min_s, s);
    sum_s += s;
  }
  const double mean_s = sum_s / double(size_);
  obs::Registry& reg = obs::Registry::global();
  reg.gauge("comm.rank_time_max_s").set(max_s);
  reg.gauge("comm.rank_time_min_s").set(min_s);
  reg.gauge("comm.rank_time_mean_s").set(mean_s);
  reg.gauge("comm.imbalance_ratio").set(mean_s > 0.0 ? max_s / mean_s : 1.0);
  obs::RunReport::global().record(
      "world_run", {{"ranks", size_},
                    {"rank_seconds", rank_seconds},
                    {"max_s", max_s},
                    {"min_s", min_s},
                    {"mean_s", mean_s},
                    {"imbalance_ratio", mean_s > 0.0 ? max_s / mean_s : 1.0},
                    {"bytes", total_bytes_}});

  // Rethrow the lowest-rank failure itself: a CommAborted is only a peer's
  // echo of it, reported when nothing else failed. Any other exception
  // escapes the try below.
  std::exception_ptr aborted;
  for (const auto& e : errors) {
    if (!e) continue;
    try {
      std::rethrow_exception(e);
    } catch (const CommAborted&) {
      if (!aborted) aborted = e;
    }
  }
  if (aborted) std::rethrow_exception(aborted);
}

}  // namespace q2::par
