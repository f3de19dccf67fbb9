#include "obs/metrics.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>

#include "common/types.hpp"
#include "obs/json.hpp"

namespace q2::obs {

namespace detail {

thread_local constinit std::size_t metric_slot_index = kMetricSlots;

namespace {

// Live threads holding each slot. Leaked: threads may exit during static
// teardown.
struct SlotTable {
  std::mutex mutex;
  std::array<std::uint32_t, kMetricSlots> holders{};
};

SlotTable& slot_table() {
  static SlotTable* table = new SlotTable;
  return *table;
}

// Hands the thread's slot back when the thread exits.
struct SlotRelease {
  explicit SlotRelease(std::size_t s) : slot(s) {}
  SlotRelease(const SlotRelease&) = delete;
  SlotRelease& operator=(const SlotRelease&) = delete;
  std::size_t slot;
  ~SlotRelease() {
    SlotTable& table = slot_table();
    std::lock_guard<std::mutex> lock(table.mutex);
    --table.holders[slot];
  }
};

}  // namespace

std::size_t claim_metric_slot() {
  SlotTable& table = slot_table();
  std::size_t slot;
  {
    std::lock_guard<std::mutex> lock(table.mutex);
    slot = std::size_t(
        std::min_element(table.holders.begin(), table.holders.end()) -
        table.holders.begin());
    ++table.holders[slot];
  }
  thread_local const SlotRelease release{slot};
  metric_slot_index = slot;
  return slot;
}

}  // namespace detail

std::uint64_t Counter::value() const {
  std::uint64_t total = 0;
  for (const Slot& s : slots_) total += s.value.load(std::memory_order_relaxed);
  return total;
}

void Counter::reset() {
  for (Slot& s : slots_) s.value.store(0, std::memory_order_relaxed);
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      lines_per_slot_((bounds_.size() + 2 + Line::kWords - 1) / Line::kWords),
      lines_(std::make_unique<Line[]>(detail::kMetricSlots * lines_per_slot_)) {
  require(std::is_sorted(bounds_.begin(), bounds_.end()),
          "Histogram: bucket bounds must be ascending");
}

void Histogram::observe(double x) {
  // Edges are inclusive upper bounds: x lands in the first bucket whose edge
  // is >= x (lower_bound), matching the Prometheus `le` convention.
  const std::size_t i =
      std::size_t(std::lower_bound(bounds_.begin(), bounds_.end(), x) -
                  bounds_.begin());
  const std::size_t slot = detail::metric_slot();
  word(slot, 1 + i).fetch_add(1, std::memory_order_relaxed);
  std::atomic<std::uint64_t>& sum = word(slot, 0);
  std::uint64_t old = sum.load(std::memory_order_relaxed);
  while (!sum.compare_exchange_weak(
      old, std::bit_cast<std::uint64_t>(std::bit_cast<double>(old) + x),
      std::memory_order_relaxed)) {
  }
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1, 0);
  for (std::size_t s = 0; s < detail::kMetricSlots; ++s)
    for (std::size_t i = 0; i < out.size(); ++i)
      out[i] += word(s, 1 + i).load(std::memory_order_relaxed);
  return out;
}

std::uint64_t Histogram::count() const {
  const std::vector<std::uint64_t> counts = bucket_counts();
  return std::accumulate(counts.begin(), counts.end(), std::uint64_t(0));
}

double Histogram::sum() const {
  double total = 0.0;
  for (std::size_t s = 0; s < detail::kMetricSlots; ++s)
    total += std::bit_cast<double>(word(s, 0).load(std::memory_order_relaxed));
  return total;
}

void Histogram::reset() {
  for (std::size_t l = 0; l < detail::kMetricSlots * lines_per_slot_; ++l)
    for (std::atomic<std::uint64_t>& w : lines_[l].word)
      w.store(0, std::memory_order_relaxed);
}

std::vector<double> default_time_bounds() {
  // 1 µs .. ~30 s, two buckets per decade (1, 3.16, 10, ...); larger values
  // land in the overflow bucket.
  std::vector<double> b;
  double edge = 1e-6;
  for (int i = 0; i < 16; ++i) {
    b.push_back(edge);
    edge *= 3.1622776601683795;  // sqrt(10)
  }
  return b;
}

Registry& Registry::global() {
  static Registry* r = new Registry;  // leaked: usable during static teardown
  return *r;
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name,
                               std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return *slot;
}

MetricsSnapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot s;
  for (const auto& [name, c] : counters_) s.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) s.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.bounds = h->bounds();
    hs.counts = h->bucket_counts();
    // The count from the same loads, so it equals the buckets' sum.
    hs.count = std::accumulate(hs.counts.begin(), hs.counts.end(),
                               std::uint64_t(0));
    hs.sum = h->sum();
    s.histograms[name] = std::move(hs);
  }
  return s;
}

std::string Registry::text() const {
  const MetricsSnapshot s = snapshot();
  std::string out;
  for (const auto& [name, v] : s.counters)
    out += "counter   " + name + " = " + std::to_string(v) + "\n";
  for (const auto& [name, v] : s.gauges)
    out += "gauge     " + name + " = " + json_number(v) + "\n";
  for (const auto& [name, h] : s.histograms) {
    out += "histogram " + name + " count=" + std::to_string(h.count) +
           " sum=" + json_number(h.sum);
    if (h.count > 0) out += " mean=" + json_number(h.sum / double(h.count));
    out += "\n";
  }
  return out;
}

std::string Registry::json() const {
  const MetricsSnapshot s = snapshot();
  std::vector<JsonField> counters, gauges, histograms;
  for (const auto& [name, v] : s.counters) counters.emplace_back(name, v);
  for (const auto& [name, v] : s.gauges) gauges.emplace_back(name, v);
  for (const auto& [name, h] : s.histograms) {
    std::vector<double> counts(h.counts.begin(), h.counts.end());
    histograms.emplace_back(
        name, JsonValue::raw(json_object({{"count", h.count},
                                          {"sum", h.sum},
                                          {"bounds", h.bounds},
                                          {"counts", counts}})));
  }
  return json_object(
      {{"counters", JsonValue::raw(json_object(counters))},
       {"gauges", JsonValue::raw(json_object(gauges))},
       {"histograms", JsonValue::raw(json_object(histograms))}});
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

}  // namespace q2::obs
