// Telemetry layer: counter/gauge/histogram semantics, scoped-span tracing
// (including cross-thread recording and the Chrome trace_event export, which
// is parsed back with a minimal JSON parser), JSONL run reports, and the
// --trace=/--report=/--metrics= flag plumbing.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hpp"

namespace q2 {
namespace {

// Telemetry output is parsed back with the shared obs::Json parser (this
// file's original hand-rolled parser was promoted into src/obs/json.hpp,
// where tools/bench_diff uses it too).
using Jv = obs::Json;

Jv parse_json(const std::string& text) { return Jv::parse(text); }

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// ---------------------------------------------------------------------------
// Instruments.

TEST(ObsMetrics, CounterSemantics) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsMetrics, GaugeSemantics) {
  obs::Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(2.5);
  g.set(-7.0);  // last write wins
  EXPECT_EQ(g.value(), -7.0);
  g.reset();
  EXPECT_EQ(g.value(), 0.0);
}

TEST(ObsMetrics, HistogramBucketsAndOverflow) {
  obs::Histogram h({1.0, 10.0, 100.0});
  h.observe(0.5);    // bucket 0
  h.observe(1.0);    // bucket 0 (edges are inclusive upper bounds)
  h.observe(5.0);    // bucket 1
  h.observe(50.0);   // bucket 2
  h.observe(1000.0); // overflow
  EXPECT_EQ(h.count(), 5u);
  EXPECT_NEAR(h.sum(), 1056.5, 1e-12);
  const std::vector<std::uint64_t> counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
}

TEST(ObsMetrics, DefaultTimeBoundsAscend) {
  const std::vector<double> b = obs::default_time_bounds();
  ASSERT_GE(b.size(), 2u);
  for (std::size_t i = 1; i < b.size(); ++i) EXPECT_LT(b[i - 1], b[i]);
  EXPECT_LE(b.front(), 1e-5);  // catches microsecond-scale gates
  EXPECT_GE(b.back(), 1.0);    // and second-scale solves
}

TEST(ObsMetrics, RegistryLookupIsStableAcrossReset) {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& c = reg.counter("test_obs.stable");
  EXPECT_EQ(&c, &reg.counter("test_obs.stable"));
  c.add(3);
  obs::Gauge& g = reg.gauge("test_obs.gauge");
  g.set(1.25);
  obs::Histogram& h = reg.histogram("test_obs.hist", {1.0, 2.0});
  h.observe(1.5);

  obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("test_obs.stable"), 3u);
  EXPECT_EQ(snap.gauges.at("test_obs.gauge"), 1.25);
  EXPECT_EQ(snap.histograms.at("test_obs.hist").count, 1u);

  reg.reset();
  // The same references remain usable after reset(); values are zeroed.
  EXPECT_EQ(c.value(), 0u);
  c.add();
  EXPECT_EQ(reg.snapshot().counters.at("test_obs.stable"), 1u);
}

TEST(ObsMetrics, JsonDumpParses) {
  obs::Registry& reg = obs::Registry::global();
  reg.counter("test_obs.json_counter").add(7);
  reg.histogram("test_obs.json_hist").observe(0.5);
  const Jv root = parse_json(reg.json());
  EXPECT_EQ(root.at("counters").at("test_obs.json_counter").number, 7.0);
  const Jv& hist = root.at("histograms").at("test_obs.json_hist");
  EXPECT_EQ(hist.at("count").number, 1.0);
  EXPECT_EQ(hist.at("bounds").array.size() + 1, hist.at("counts").array.size());
  // The text dump should at least mention every instrument.
  EXPECT_NE(reg.text().find("test_obs.json_counter"), std::string::npos);
}

TEST(ObsMetrics, ConcurrentWritersAndReadersStayExact) {
  // Eight writers add to one counter, observe integers into one histogram
  // and charge work, while a reader snapshots the registry in a loop. Every
  // read is monotone and no greater than the final value; the final totals,
  // bucket counts and histogram sum are exact.
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& counter = reg.counter("test_obs.stress_counter");
  obs::Histogram& hist = reg.histogram("test_obs.stress_hist", {1, 4, 16});
  obs::Counter& flops = reg.counter("work.flops");
  obs::Counter& bytes = reg.counter("work.bytes");
  counter.reset();
  hist.reset();
  const std::uint64_t flops0 = flops.value();
  const std::uint64_t bytes0 = bytes.value();

  constexpr int kWriters = 8;
  constexpr std::uint64_t kOps = 20000;
  // Each writer's i-th step adds 1 + i % 3, observes i % 20 and charges
  // (i % 7, 2 * (i % 5)).
  std::uint64_t want_adds = 0, want_flops = 0, want_bytes = 0;
  std::vector<std::uint64_t> want_buckets(4, 0);
  double want_sum = 0.0;
  for (std::uint64_t i = 0; i < kOps; ++i) {
    want_adds += kWriters * (1 + i % 3);
    want_flops += kWriters * (i % 7);
    want_bytes += kWriters * 2 * (i % 5);
    const std::uint64_t x = i % 20;
    want_buckets[x <= 1 ? 0 : x <= 4 ? 1 : x <= 16 ? 2 : 3] += kWriters;
    want_sum += double(kWriters * x);
  }

  std::atomic<bool> writing{true};
  std::atomic<int> bad_reads{0};
  std::uint64_t reads = 0;
  std::thread reader([&] {
    std::uint64_t last_adds = 0, last_flops = 0, last_bytes = 0;
    std::vector<std::uint64_t> last_buckets(4, 0);
    double last_sum = 0.0;
    bool more = true;
    while (more) {
      more = writing.load(std::memory_order_acquire);
      const obs::MetricsSnapshot snap = reg.snapshot();
      const std::uint64_t adds = snap.counters.at("test_obs.stress_counter");
      const std::uint64_t f = snap.counters.at("work.flops") - flops0;
      const std::uint64_t b = snap.counters.at("work.bytes") - bytes0;
      const obs::HistogramSnapshot& h = snap.histograms.at("test_obs.stress_hist");
      bool ok = adds >= last_adds && adds <= want_adds && f >= last_flops &&
                f <= want_flops && b >= last_bytes && b <= want_bytes &&
                h.sum >= last_sum && h.sum <= want_sum &&
                h.counts.size() == want_buckets.size();
      std::uint64_t in_buckets = 0;
      for (std::size_t i = 0; ok && i < h.counts.size(); ++i) {
        ok = h.counts[i] >= last_buckets[i] && h.counts[i] <= want_buckets[i];
        in_buckets += h.counts[i];
      }
      if (!ok || h.count != in_buckets) bad_reads.fetch_add(1);
      last_adds = adds;
      last_flops = f;
      last_bytes = b;
      last_buckets = h.counts;
      last_sum = h.sum;
      ++reads;
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w)
    writers.emplace_back([&] {
      for (std::uint64_t i = 0; i < kOps; ++i) {
        counter.add(1 + i % 3);
        hist.observe(double(i % 20));
        obs::WorkCounter::charge(i % 7, 2 * (i % 5));
      }
    });
  for (std::thread& t : writers) t.join();
  writing.store(false, std::memory_order_release);
  reader.join();

  EXPECT_EQ(bad_reads.load(), 0) << "of " << reads << " reads";
  EXPECT_GE(reads, 2u);
  EXPECT_EQ(counter.value(), want_adds);
  EXPECT_EQ(flops.value() - flops0, want_flops);
  EXPECT_EQ(bytes.value() - bytes0, want_bytes);
  EXPECT_EQ(hist.bucket_counts(), want_buckets);
  EXPECT_EQ(hist.count(), kWriters * kOps);
  EXPECT_EQ(hist.sum(), want_sum);
}

TEST(ObsMetrics, ThreadsSharingASlotLoseNothing) {
  // Twice as many live threads as write slots, so every slot has two
  // writers; none of their adds may be lost.
  constexpr std::size_t kThreads = 2 * obs::detail::kMetricSlots;
  constexpr std::uint64_t kAdds = 5000;
  obs::Counter counter;
  obs::Histogram hist({0.5});
  std::atomic<std::size_t> started{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      // Every thread holds its slot before any writes, so none exits and
      // hands its slot on early.
      counter.add(0);
      started.fetch_add(1);
      while (started.load() < kThreads) std::this_thread::yield();
      for (std::uint64_t i = 0; i < kAdds; ++i) {
        counter.add();
        hist.observe(1.0);
      }
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.value(), kThreads * kAdds);
  EXPECT_EQ(hist.count(), kThreads * kAdds);
  EXPECT_EQ(hist.sum(), double(kThreads * kAdds));
}

// ---------------------------------------------------------------------------
// Tracing.

TEST(ObsTrace, DisabledSpansRecordNothing) {
  obs::set_tracing(false);
  obs::clear_trace();
  {
    OBS_SPAN("test/should_not_appear");
  }
  EXPECT_EQ(obs::trace_event_count(), 0u);
}

TEST(ObsTrace, NestedSpansAcrossThreadsExportValidChromeJson) {
#ifdef Q2_OBS_DISABLE_TRACING
  GTEST_SKIP() << "tracing compiled out (Q2_OBS_DISABLE_TRACING)";
#endif
  obs::set_tracing(true);
  obs::clear_trace();
  {
    OBS_SPAN("test/outer");
    { OBS_SPAN("test/inner"); }
    std::thread a([] { OBS_SPAN("test/worker_a"); });
    std::thread b([] { OBS_SPAN("test/worker_b"); });
    a.join();
    b.join();
  }
  obs::set_tracing(false);
  EXPECT_EQ(obs::trace_event_count(), 4u);

  const Jv root = parse_json(obs::trace_json());
  const std::vector<Jv>& events = root.at("traceEvents").array;
  ASSERT_EQ(events.size(), 4u);
  const Jv* outer = nullptr;
  const Jv* inner = nullptr;
  std::map<std::string, double> tids;
  for (const Jv& e : events) {
    EXPECT_EQ(e.at("ph").string, "X");
    EXPECT_GE(e.at("ts").number, 0.0);
    EXPECT_GE(e.at("dur").number, 0.0);
    EXPECT_TRUE(e.has("pid"));
    tids[e.at("name").string] = e.at("tid").number;
    if (e.at("name").string == "test/outer") outer = &e;
    if (e.at("name").string == "test/inner") inner = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  // Nesting: the inner span lies within the outer span, on the same lane.
  EXPECT_EQ(outer->at("tid").number, inner->at("tid").number);
  EXPECT_LE(outer->at("ts").number, inner->at("ts").number);
  EXPECT_GE(outer->at("ts").number + outer->at("dur").number,
            inner->at("ts").number + inner->at("dur").number);
  // The worker threads get their own lanes.
  EXPECT_NE(tids.at("test/worker_a"), tids.at("test/outer"));
  EXPECT_NE(tids.at("test/worker_a"), tids.at("test/worker_b"));

  obs::clear_trace();
  EXPECT_EQ(obs::trace_event_count(), 0u);
}

TEST(ObsTrace, WriteTraceFileRoundTrips) {
#ifdef Q2_OBS_DISABLE_TRACING
  GTEST_SKIP() << "tracing compiled out (Q2_OBS_DISABLE_TRACING)";
#endif
  obs::set_tracing(true);
  obs::clear_trace();
  { OBS_SPAN("test/file_span"); }
  obs::set_tracing(false);
  const std::string path = temp_path("q2_test.trace.json");
  ASSERT_TRUE(obs::write_trace_file(path));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const Jv root = parse_json(ss.str());
  ASSERT_EQ(root.at("traceEvents").array.size(), 1u);
  EXPECT_EQ(root.at("traceEvents").array[0].at("name").string,
            "test/file_span");
  obs::clear_trace();
  std::remove(path.c_str());
}

TEST(ObsTrace, TraceLimitDropsSpansAndCountsThem) {
#ifdef Q2_OBS_DISABLE_TRACING
  GTEST_SKIP() << "tracing compiled out (Q2_OBS_DISABLE_TRACING)";
#endif
  obs::set_trace_limit(10);
  obs::set_tracing(true);
  obs::clear_trace();
  for (int i = 0; i < 20; ++i) {
    OBS_SPAN("test/limited");
  }
  obs::set_tracing(false);
  EXPECT_EQ(obs::trace_event_count(), 10u);
  EXPECT_EQ(obs::trace_dropped_count(), 10u);
  // The drop count also surfaces in the metrics dump, so a truncated trace
  // is visible even when only the metrics file is collected.
  EXPECT_GE(obs::Registry::global().snapshot().counters.at(
                "trace.dropped_spans"),
            10u);
  obs::clear_trace();
  EXPECT_EQ(obs::trace_event_count(), 0u);
  EXPECT_EQ(obs::trace_dropped_count(), 0u);
  obs::set_trace_limit(0);  // back to the default cap
}

// ---------------------------------------------------------------------------
// Run reports.

TEST(ObsReport, JsonlRoundTrip) {
  obs::RunReport& report = obs::RunReport::global();
  EXPECT_FALSE(report.is_open());
  report.record("ignored", {{"x", 1}});  // no-op while closed

  const std::string path = temp_path("q2_test_report.jsonl");
  ASSERT_TRUE(report.open(path));
  EXPECT_TRUE(report.is_open());
  report.record("vqe_iteration",
                {{"iteration", 0},
                 {"energy", -1.125},
                 {"note", "quoted \"text\"\n"}});
  report.record("schedule", {{"loads", std::vector<double>{1.0, 2.5}}});
  report.close();
  EXPECT_FALSE(report.is_open());

  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  const Jv first = parse_json(lines[0]);
  EXPECT_EQ(first.at("kind").string, "vqe_iteration");
  EXPECT_EQ(first.at("iteration").number, 0.0);
  EXPECT_EQ(first.at("energy").number, -1.125);
  EXPECT_EQ(first.at("note").string, "quoted \"text\"\n");
  const Jv second = parse_json(lines[1]);
  ASSERT_EQ(second.at("loads").array.size(), 2u);
  EXPECT_EQ(second.at("loads").array[1].number, 2.5);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// JSON emission corner cases.

TEST(ObsJson, EscapesAndNumbers) {
  EXPECT_EQ(obs::json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(parse_json(obs::json_number(0.1)).number, 0.1);
  EXPECT_EQ(obs::json_number(std::nan("")), "null");
  const std::string obj = obs::json_object(
      {{"s", "v"}, {"b", true}, {"n", nullptr}, {"i", std::size_t(3)}});
  const Jv root = parse_json(obj);
  EXPECT_EQ(root.at("s").string, "v");
  EXPECT_TRUE(root.at("b").boolean);
  EXPECT_EQ(root.at("n").type, Jv::kNull);
  EXPECT_EQ(root.at("i").number, 3.0);
}

// ---------------------------------------------------------------------------
// Flag plumbing. Runs last in this file: configure_from_args() enables the
// sinks process-wide, and we flush them via shutdown() within the test.

TEST(ObsConfig, ConfigureFromArgsStripsFlagsAndWritesSinks) {
  const std::string trace = temp_path("q2_cfg.trace.json");
  const std::string report = temp_path("q2_cfg.jsonl");
  const std::string metrics = temp_path("q2_cfg_metrics.json");
  const std::string trace_arg = "--trace=" + trace;
  const std::string report_arg = "--report=" + report;
  const std::string metrics_arg = "--metrics=" + metrics;
  std::vector<char*> argv = {
      const_cast<char*>("prog"),      const_cast<char*>(trace_arg.c_str()),
      const_cast<char*>("1.4"),       const_cast<char*>(report_arg.c_str()),
      const_cast<char*>(metrics_arg.c_str()),
      const_cast<char*>("--other-flag")};
  int argc = int(argv.size());
  obs::configure_from_args(argc, argv.data());
  // Recognized flags are consumed; positionals and foreign flags survive.
  ASSERT_EQ(argc, 3);
  EXPECT_STREQ(argv[1], "1.4");
  EXPECT_STREQ(argv[2], "--other-flag");
  EXPECT_TRUE(obs::tracing_enabled());
  EXPECT_TRUE(obs::RunReport::global().is_open());

  { OBS_SPAN("test/configured"); }
  obs::RunReport::global().record("marker", {{"ok", true}});
  obs::Registry::global().counter("test_obs.configured").add();
  obs::shutdown();
  EXPECT_FALSE(obs::tracing_enabled());
  EXPECT_FALSE(obs::RunReport::global().is_open());

  std::ifstream tin(trace);
  ASSERT_TRUE(tin.good());
  std::stringstream tss;
  tss << tin.rdbuf();
  const Jv troot = parse_json(tss.str());
#ifndef Q2_OBS_DISABLE_TRACING
  bool found = false;
  for (const Jv& e : troot.at("traceEvents").array)
    if (e.at("name").string == "test/configured") found = true;
  EXPECT_TRUE(found);
#endif

  std::ifstream rin(report);
  std::string line;
  ASSERT_TRUE(std::getline(rin, line));
  EXPECT_EQ(parse_json(line).at("kind").string, "marker");

  std::ifstream min(metrics);
  ASSERT_TRUE(min.good());
  std::stringstream mss;
  mss << min.rdbuf();
  EXPECT_GE(parse_json(mss.str())
                .at("counters")
                .at("test_obs.configured")
                .number,
            1.0);

  obs::clear_trace();
  std::remove(trace.c_str());
  std::remove(report.c_str());
  std::remove(metrics.c_str());
}

// A failing sink must not take the others down with it: an unwritable trace
// path degrades to a warning, and the metrics dump and run report still
// flush (regression test for the all-or-nothing shutdown).
TEST(ObsConfig, ShutdownFlushesRemainingSinksWhenTraceWriteFails) {
  const std::string trace = "/nonexistent_q2_dir/q2_hard.trace.json";
  const std::string report = temp_path("q2_hard.jsonl");
  const std::string metrics = temp_path("q2_hard_metrics.json");
  const std::string trace_arg = "--trace=" + trace;
  const std::string report_arg = "--report=" + report;
  const std::string metrics_arg = "--metrics=" + metrics;
  std::vector<char*> argv = {const_cast<char*>("prog"),
                             const_cast<char*>(trace_arg.c_str()),
                             const_cast<char*>(report_arg.c_str()),
                             const_cast<char*>(metrics_arg.c_str())};
  int argc = int(argv.size());
  obs::configure_from_args(argc, argv.data());

  { OBS_SPAN("test/hardened"); }
  obs::RunReport::global().record("marker", {{"ok", true}});
  obs::Registry::global().counter("test_obs.hardened").add();
  obs::shutdown();

  EXPECT_FALSE(std::ifstream(trace).good());
  std::ifstream rin(report);
  std::string line;
  ASSERT_TRUE(std::getline(rin, line));
  EXPECT_EQ(parse_json(line).at("kind").string, "marker");
  std::ifstream min(metrics);
  ASSERT_TRUE(min.good());
  std::stringstream mss;
  mss << min.rdbuf();
  EXPECT_GE(
      parse_json(mss.str()).at("counters").at("test_obs.hardened").number,
      1.0);

  obs::clear_trace();
  std::remove(report.c_str());
  std::remove(metrics.c_str());
}

}  // namespace
}  // namespace q2
