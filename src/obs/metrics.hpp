// Process-wide metrics registry: named counters, gauges, and fixed-bucket
// histograms. Designed for hot paths — counters and histograms write to
// per-thread slots, and callers cache the reference from the (mutex-guarded)
// name lookup once:
//
//   static obs::Counter& gates = obs::Registry::global().counter("mps.gates");
//   gates.add();
//
// Write slots: each Counter and Histogram holds kMetricSlots slots, each
// padded to whole cache lines. A thread claims a slot on its first write (one
// that the fewest live threads hold) and hands it back when it exits; the
// slot keeps its counts. A write is one relaxed read-modify-write on the
// calling thread's own slot, so writers on different threads never touch the
// same cache line. A read sums the slots in slot order; slots only grow, so
// every read is exact for the writes it sees, and threads that share a slot
// (more live threads than slots) still lose nothing.
//
// Instrument objects live for the lifetime of the process; reset() zeroes
// values but never invalidates references. Snapshots are pull-style and can be
// dumped as aligned text or JSON.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace q2::obs {

namespace detail {

/// Write slots per counter and histogram, and the line size that pads them.
inline constexpr std::size_t kMetricSlots = 16;
inline constexpr std::size_t kCacheLine = 64;

/// The calling thread's write slot; kMetricSlots until its first write.
extern thread_local constinit std::size_t metric_slot_index;
/// Claims a write slot for the calling thread (see the header comment).
std::size_t claim_metric_slot();

inline std::size_t metric_slot() {
  const std::size_t s = metric_slot_index;
  if (s < kMetricSlots) [[likely]] return s;
  return claim_metric_slot();
}

}  // namespace detail

/// Monotone event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    slots_[detail::metric_slot()].value.fetch_add(n,
                                                  std::memory_order_relaxed);
  }
  std::uint64_t value() const;
  void reset();

 private:
  struct alignas(detail::kCacheLine) Slot {
    std::atomic<std::uint64_t> value{0};
  };
  Slot slots_[detail::kMetricSlots];
};

/// Last-written scalar (loads, sizes, efficiencies). Also supports atomic
/// increments for occupancy-style gauges (pool.active_chunks) where several
/// threads enter/leave concurrently.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: `bounds` are ascending inclusive upper edges; one
/// extra overflow bucket catches everything above the last edge. Also tracks
/// the sum and count, so mean = sum()/count(); the sum of integer values
/// (below 2^53) is exact.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double x);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts; size() == bounds().size() + 1 (last = overflow).
  std::vector<std::uint64_t> bucket_counts() const;
  std::uint64_t count() const;
  double sum() const;
  void reset();

 private:
  struct alignas(detail::kCacheLine) Line {
    static constexpr std::size_t kWords =
        detail::kCacheLine / sizeof(std::uint64_t);
    std::atomic<std::uint64_t> word[kWords];
  };
  // Slot s's word 0 holds the bits of its sum, word 1 + i the count of
  // bucket i; each slot takes lines_per_slot_ whole lines.
  std::atomic<std::uint64_t>& word(std::size_t slot, std::size_t w) const {
    return lines_[slot * lines_per_slot_ + w / Line::kWords]
        .word[w % Line::kWords];
  }

  std::vector<double> bounds_;
  std::size_t lines_per_slot_;
  std::unique_ptr<Line[]> lines_;
};

/// Log-spaced edges suited to seconds-valued timings: 1 µs .. 100 s.
std::vector<double> default_time_bounds();

struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;
  std::uint64_t count = 0;
  double sum = 0.0;
};

struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

class Registry {
 public:
  /// The process-wide registry every instrumented module reports into.
  static Registry& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `bounds` applies on first registration only; later lookups reuse the
  /// existing instrument.
  Histogram& histogram(const std::string& name,
                       std::vector<double> bounds = default_time_bounds());

  MetricsSnapshot snapshot() const;
  /// Human-readable dump, one instrument per line.
  std::string text() const;
  /// `{"counters":{...},"gauges":{...},"histograms":{...}}`.
  std::string json() const;

  /// Zeroes every instrument. References handed out earlier stay valid —
  /// instruments are never deallocated.
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace q2::obs
