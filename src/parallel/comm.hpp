// Simulated MPI: a World spawns one thread per rank, each receiving a Comm
// with Bcast / Reduce / Allreduce / Gather / split semantics matching the
// subset of MPI the paper's three-level scheme uses (MPI_Bcast of parameters,
// MPI_Reduce of energies, sub-communicators per DMET fragment). Traffic is
// byte-accounted per rank so benches can report communication volume exactly
// as §IV-C does (~15.6 KB per process per VQE iteration).
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/types.hpp"
#include "obs/metrics.hpp"

namespace q2::par {

class Comm;

/// Thrown by a collective whose peers cannot all arrive because a rank of
/// the same World has failed. World::run reports that failure, not this.
class CommAborted : public Error {
 public:
  CommAborted()
      : Error("comm: collective aborted because another rank failed") {}
};

namespace detail {

// Process-wide communication metrics, aggregated across every Comm/World.
// References cached once per call site (see obs/metrics.hpp).
inline obs::Counter& comm_bytes_counter() {
  static obs::Counter& c = obs::Registry::global().counter("comm.bytes");
  return c;
}
inline obs::Counter& comm_bcast_ops() {
  static obs::Counter& c = obs::Registry::global().counter("comm.bcast_ops");
  return c;
}
inline obs::Counter& comm_reduce_ops() {
  static obs::Counter& c = obs::Registry::global().counter("comm.reduce_ops");
  return c;
}
inline obs::Counter& comm_allreduce_ops() {
  static obs::Counter& c =
      obs::Registry::global().counter("comm.allreduce_ops");
  return c;
}
inline obs::Counter& comm_allgather_ops() {
  static obs::Counter& c =
      obs::Registry::global().counter("comm.allgather_ops");
  return c;
}

// One per World, shared by its communicator and every split() child: the
// lock and condition variable all their collectives wait on, and the abort
// flag a failing rank raises so no peer waits for it forever.
struct WorldSync {
  std::mutex mutex;
  std::condition_variable cv;
  bool aborted = false;
};

struct CommState {
  CommState(int size, std::shared_ptr<WorldSync> sync)
      : size(size),
        sync(std::move(sync)),
        slots(size, nullptr),
        split_keys(size),
        bytes(size, 0) {}

  const int size;
  const std::shared_ptr<WorldSync> sync;
  int arrived = 0;
  std::uint64_t generation = 0;

  const void* bcast_ptr = nullptr;
  std::vector<const void*> slots;
  std::vector<std::pair<int, int>> split_keys;  // (color, key) per rank
  std::map<int, std::shared_ptr<CommState>> split_children;
  std::vector<std::uint64_t> bytes;  // per-rank traffic in bytes
};

}  // namespace detail

class Comm {
 public:
  Comm(std::shared_ptr<detail::CommState> state, int rank)
      : state_(std::move(state)), rank_(rank) {}

  int rank() const { return rank_; }
  int size() const { return state_->size; }
  std::uint64_t bytes_transferred() const { return state_->bytes[rank_]; }

  /// Blocks until every rank of this communicator arrives; throws
  /// CommAborted instead once a rank of the World has failed.
  void barrier() { rendezvous(/*abortable=*/true); }

  /// Broadcast `count` elements of trivially copyable T from `root`.
  template <typename T>
  void bcast(T* data, std::size_t count, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    bcast_bytes(data, count * sizeof(T), root);
  }
  template <typename T>
  void bcast(std::vector<T>& data, int root) {
    bcast(data.data(), data.size(), root);
  }

  /// Element-wise sum-reduce to `root`; non-root outputs are unspecified.
  /// The root adds the contributions in rank order 0..size-1, the same
  /// order allreduce_sum uses on every rank.
  template <typename T>
  void reduce_sum(T* data, std::size_t count, int root) {
    detail::comm_reduce_ops().add();
    const std::vector<T> local(data, data + count);
    collect_slots(local.data());
    if (rank_ == root) sum_slots_in_rank_order(data, count);
    rendezvous(/*abortable=*/false);
  }
  template <typename T>
  T reduce_sum(T value, int root) {
    reduce_sum(&value, 1, root);
    return value;
  }

  /// Element-wise sum-reduce visible on every rank. Every rank adds the
  /// contributions in rank order 0..size-1, so floating-point sums carry the
  /// same bits on every rank (ranks that each run their own optimizer on the
  /// result cannot branch apart).
  template <typename T>
  void allreduce_sum(T* data, std::size_t count) {
    detail::comm_allreduce_ops().add();
    const std::vector<T> local(data, data + count);
    collect_slots(local.data());
    sum_slots_in_rank_order(data, count);
    rendezvous(/*abortable=*/false);
  }
  template <typename T>
  T allreduce_sum(T value) {
    allreduce_sum(&value, 1);
    return value;
  }

  /// Gather one value from each rank onto every rank (allgather).
  template <typename T>
  std::vector<T> allgather(const T& value) {
    detail::comm_allgather_ops().add();
    collect_slots(&value);
    std::vector<T> out(size());
    for (int r = 0; r < size(); ++r) {
      out[r] = *static_cast<const T*>(state_->slots[r]);
      if (r != rank_) account(sizeof(T));
    }
    rendezvous(/*abortable=*/false);
    return out;
  }

  /// Concatenate every rank's `values` in rank order onto every rank
  /// (MPI_Allgatherv); ranks may contribute different lengths.
  template <typename T>
  std::vector<T> allgatherv(const std::vector<T>& values) {
    static_assert(std::is_trivially_copyable_v<T>);
    detail::comm_allgather_ops().add();
    collect_slots(&values);
    std::vector<T> out;
    for (int r = 0; r < size(); ++r) {
      const auto& src = *static_cast<const std::vector<T>*>(state_->slots[r]);
      out.insert(out.end(), src.begin(), src.end());
      if (r != rank_) account(src.size() * sizeof(T));
    }
    rendezvous(/*abortable=*/false);
    return out;
  }

  /// MPI_Comm_split: ranks with the same color form a sub-communicator,
  /// ordered by key (ties by parent rank).
  Comm split(int color, int key);

 private:
  /// The wait behind barrier(). A collective ends with a wait that is not
  /// abortable: its peers passed the collective's first wait, so they are
  /// sure to arrive, and until they do they may still read this rank's
  /// buffers, which unwinding early would free.
  void rendezvous(bool abortable);
  void bcast_bytes(void* data, std::size_t nbytes, int root);
  /// Publish a per-rank pointer and synchronize so peers may read it.
  void collect_slots(const void* ptr);
  /// data = slot 0 + slot 1 + ... + slot (size-1), element-wise, in that
  /// order; only slots of other ranks count as traffic.
  template <typename T>
  void sum_slots_in_rank_order(T* data, std::size_t count) {
    for (int r = 0; r < size(); ++r) {
      const T* src = static_cast<const T*>(state_->slots[r]);
      if (r == 0)
        std::copy(src, src + count, data);
      else
        for (std::size_t i = 0; i < count; ++i) data[i] += src[i];
      if (r != rank_) account(count * sizeof(T));
    }
  }
  void account(std::size_t nbytes) {
    state_->bytes[rank_] += nbytes;
    detail::comm_bytes_counter().add(nbytes);
  }

  std::shared_ptr<detail::CommState> state_;
  int rank_;
};

/// Spawns `size` rank-threads, runs `fn(comm)` on each, joins them all.
/// When a rank throws, the collectives its peers wait in or enter next throw
/// CommAborted, so the run cannot hang; run() then rethrows, on the caller
/// thread, the lowest-rank exception that is not CommAborted.
class World {
 public:
  explicit World(int size) : size_(size) {}
  void run(const std::function<void(Comm&)>& fn) const;
  /// Total bytes moved across all ranks in the last run().
  std::uint64_t total_bytes() const { return total_bytes_; }

 private:
  int size_;
  mutable std::uint64_t total_bytes_ = 0;
};

}  // namespace q2::par
