// Units for the observability layer (src/obs): the metrics registry's
// thread-safety under concurrent parallel_for increments, snapshot/delta
// semantics, the Chrome-trace tracer, and log-level parsing.
//
// The thread-safety tests run under the sanitizer CI job, so a data race in
// Metric::add / record_max would trip ASan/TSan-style diagnostics as well as
// the exact-sum assertions here.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/histogram.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "util/parallel_for.h"

namespace gfa::obs {
namespace {

// Every test toggles the global enable flags; restore them so test order
// never matters (gtest may shuffle, and other suites assume "disabled").
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    metrics_was_ = metrics_enabled();
    trace_was_ = trace_enabled();
  }
  void TearDown() override {
    set_metrics_enabled(metrics_was_);
    set_trace_enabled(trace_was_);
    Metrics::instance().reset_all();
    Tracer::instance().clear();
  }

 private:
  bool metrics_was_ = false;
  bool trace_was_ = false;
};

TEST_F(ObsTest, CountersDisabledByDefaultCostNothingAndRecordNothing) {
  set_metrics_enabled(false);
  Metrics::instance().reset_all();
  const auto before = Metrics::instance().snapshot();
  GFA_COUNT("normal_form.calls", 7);
  GFA_GAUGE_MAX("normal_form.peak_terms", 1234);
  EXPECT_EQ(Metrics::instance().snapshot(), before);
}

TEST_F(ObsTest, CounterAddAndGaugeMaxSemantics) {
  set_metrics_enabled(true);
  Metrics::instance().reset_all();
  Metric& c = Metrics::instance().counter("test.counter");
  c.add(3);
  c.add(4);
  EXPECT_EQ(c.value(), 7u);

  Metric& g = Metrics::instance().gauge("test.gauge");
  g.record_max(10);
  g.record_max(5);   // lower: ignored
  g.record_max(25);  // higher: wins
  EXPECT_EQ(g.value(), 25u);
}

TEST_F(ObsTest, KnownMetricSchemaIsPreRegistered) {
  // The run-report contract promises the Buchberger pair counters appear
  // even for engines that never run Buchberger; that only works if the
  // schema is pre-registered rather than created on first touch.
  const auto snap = Metrics::instance().snapshot();
  for (const char* name :
       {"reduction_steps", "buchberger.pairs_generated",
        "buchberger.pairs_skipped", "buchberger.pairs_reduced",
        "extract.substitutions", "sat.conflicts", "bdd.cache_hits",
        "fraig.merges", "parallel.items"}) {
    EXPECT_TRUE(snap.count(name)) << "missing pre-registered metric " << name;
  }
}

TEST_F(ObsTest, ConcurrentIncrementsFromParallelForSumExactly) {
  set_metrics_enabled(true);
  Metrics::instance().reset_all();
  constexpr std::size_t kItems = 100000;
  // Each iteration adds its index to a counter and records it as a gauge
  // candidate; with relaxed atomics the total must still be exact and the
  // max must be the largest index.
  parallel_for(kItems, [](std::size_t i) {
    GFA_COUNT("test.race.counter", i);
    GFA_GAUGE_MAX("test.race.gauge", i);
  });
  const std::uint64_t expected =
      static_cast<std::uint64_t>(kItems) * (kItems - 1) / 2;
  EXPECT_EQ(Metrics::instance().counter("test.race.counter").value(), expected);
  EXPECT_EQ(Metrics::instance().gauge("test.race.gauge").value(), kItems - 1);
}

TEST_F(ObsTest, DeltaSubtractsCountersAndReportsGauges) {
  set_metrics_enabled(true);
  Metrics::instance().reset_all();
  Metrics::instance().counter("test.delta.c").add(10);
  Metrics::instance().gauge("test.delta.g").record_max(50);
  const auto base = Metrics::instance().snapshot();
  Metrics::instance().counter("test.delta.c").add(5);
  Metrics::instance().gauge("test.delta.g").record_max(80);
  const auto d = Metrics::instance().delta(base);
  EXPECT_EQ(d.at("test.delta.c"), 5u);   // counter: increment since base
  EXPECT_EQ(d.at("test.delta.g"), 80u);  // gauge: current peak
}

TEST_F(ObsTest, TraceSpanRecordsOnlyWhenEnabled) {
  Tracer::instance().clear();
  set_trace_enabled(false);
  { const TraceSpan s("invisible", "test"); }
  set_trace_enabled(true);
  { const TraceSpan s("visible", "test"); }
  const auto events = Tracer::instance().events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "visible");
  EXPECT_EQ(events[0].category, "test");
}

TEST_F(ObsTest, ChromeTraceOutputIsWellFormed) {
  Tracer::instance().clear();
  set_trace_enabled(true);
  {
    const TraceSpan outer("outer", "test");
    const TraceSpan inner("inner", "test");
  }
  std::ostringstream out;
  Tracer::instance().write_chrome_trace(out);
  const std::string json = out.str();
  // Chrome's about:tracing format essentials.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
}

TEST_F(ObsTest, AggregateSumsPerPhaseName) {
  Tracer::instance().clear();
  set_trace_enabled(true);
  { const TraceSpan s("phase_a", "test"); }
  { const TraceSpan s("phase_a", "test"); }
  { const TraceSpan s("phase_b", "test"); }
  const auto totals = Tracer::instance().aggregate();
  ASSERT_TRUE(totals.count("phase_a"));
  ASSERT_TRUE(totals.count("phase_b"));
  EXPECT_EQ(totals.at("phase_a").count, 2u);
  EXPECT_EQ(totals.at("phase_b").count, 1u);
}

// ---------------------------------------------------------------------------
// Histograms.

TEST_F(ObsTest, HistogramBucketsAreLog2BitWidth) {
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(1023), 10u);
  EXPECT_EQ(Histogram::bucket_of(1024), 11u);
  EXPECT_EQ(Histogram::bucket_of(~std::uint64_t{0}), 64u);
  EXPECT_EQ(Histogram::bucket_upper(0), 0u);
  EXPECT_EQ(Histogram::bucket_upper(1), 1u);
  EXPECT_EQ(Histogram::bucket_upper(10), 1023u);
  EXPECT_EQ(Histogram::bucket_upper(64), ~std::uint64_t{0});
}

TEST_F(ObsTest, HistogramPercentileReportsBucketUpperBounds) {
  Histogram h;
  EXPECT_EQ(h.percentile(0.5), 0u);  // empty
  // 90 samples of 1 and 10 samples of 1000: p50 lands in bucket 1 (upper
  // bound 1), p99 in 1000's bucket (upper bound 1023).
  for (int i = 0; i < 90; ++i) h.record(1);
  for (int i = 0; i < 10; ++i) h.record(1000);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.sum(), 90u + 10u * 1000u);
  EXPECT_EQ(h.percentile(0.50), 1u);
  EXPECT_EQ(h.percentile(0.90), 1u);
  EXPECT_EQ(h.percentile(0.99), 1023u);
  EXPECT_EQ(h.percentile(1.0), 1023u);
}

TEST_F(ObsTest, HistogramMacroDisabledRecordsNothing) {
  set_metrics_enabled(false);
  Metrics::instance().reset_all();
  GFA_HISTOGRAM("test.hist.disabled", 42);
  EXPECT_EQ(Metrics::instance().histogram("test.hist.disabled").count(), 0u);
}

TEST_F(ObsTest, HistogramConcurrentRecordsSumExactly) {
  set_metrics_enabled(true);
  Metrics::instance().reset_all();
  constexpr std::size_t kItems = 100000;
  parallel_for(kItems, [](std::size_t i) { GFA_HISTOGRAM("test.hist.race", i); });
  const Histogram& h = Metrics::instance().histogram("test.hist.race");
  EXPECT_EQ(h.count(), kItems);
  EXPECT_EQ(h.sum(),
            static_cast<std::uint64_t>(kItems) * (kItems - 1) / 2);
  // Per-bucket totals are exact too: bucket b holds [2^(b-1), 2^b - 1], so
  // bucket counts for a dense 0..N-1 range are the power-of-two strides.
  std::uint64_t bucket_total = 0;
  for (unsigned b = 0; b < Histogram::kBuckets; ++b)
    bucket_total += h.bucket(b);
  EXPECT_EQ(bucket_total, kItems);
  EXPECT_EQ(h.bucket(0), 1u);   // value 0
  EXPECT_EQ(h.bucket(1), 1u);   // value 1
  EXPECT_EQ(h.bucket(2), 2u);   // values 2..3
  EXPECT_EQ(h.bucket(10), 512u);  // values 512..1023
}

TEST_F(ObsTest, HistogramsFoldIntoSnapshotsOnlyWhenNonEmpty) {
  set_metrics_enabled(true);
  Metrics::instance().reset_all();
  const auto empty = Metrics::instance().snapshot();
  EXPECT_FALSE(empty.count("rewriter.substitution_us.count"));
  GFA_HISTOGRAM("rewriter.substitution_us", 7);
  GFA_HISTOGRAM("rewriter.substitution_us", 9);
  const auto snap = Metrics::instance().snapshot();
  EXPECT_EQ(snap.at("rewriter.substitution_us.count"), 2u);
  EXPECT_EQ(snap.at("rewriter.substitution_us.p50"), 7u);
  EXPECT_EQ(snap.at("rewriter.substitution_us.p99"), 15u);
  // Delta subtracts .count like a counter; percentiles stay current.
  GFA_HISTOGRAM("rewriter.substitution_us", 9);
  const auto d = Metrics::instance().delta(snap);
  EXPECT_EQ(d.at("rewriter.substitution_us.count"), 1u);
  EXPECT_EQ(d.at("rewriter.substitution_us.p50"), 15u);
}

// ---------------------------------------------------------------------------
// Progress sink.

TEST_F(ObsTest, ProgressSinkGatesAndDelivers) {
  EXPECT_FALSE(progress_active());
  report_progress(Progress{});  // no sink: harmless no-op
  std::vector<std::pair<std::string, std::uint64_t>> seen;
  set_progress_sink([&](const Progress& p) {
    seen.emplace_back(p.phase, p.step);
  });
  EXPECT_TRUE(progress_active());
  Progress p;
  p.phase = "reduction_chain";
  p.step = 42;
  report_progress(p);
  set_progress_sink(nullptr);
  EXPECT_FALSE(progress_active());
  report_progress(p);  // after removal: dropped
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].first, "reduction_chain");
  EXPECT_EQ(seen[0].second, 42u);
}

// ---------------------------------------------------------------------------
// Flight recorder.

TEST(FlightRecorder, RingKeepsTheLastEventsInOrder) {
  flight::clear();
  for (std::uint64_t i = 1; i <= flight::kRingSize + 40; ++i)
    flight::note("phase:step", i, i * 2);
  const std::vector<flight::Event> tail = flight::tail();
  ASSERT_EQ(tail.size(), flight::kRingSize);
  // Oldest surviving event is (total - ring + 1); strictly increasing seq.
  EXPECT_EQ(tail.front().seq, 41u);
  EXPECT_EQ(tail.back().seq, flight::kRingSize + 40);
  for (std::size_t i = 1; i < tail.size(); ++i)
    EXPECT_EQ(tail[i].seq, tail[i - 1].seq + 1);
  EXPECT_STREQ(tail.back().tag, "phase:step");
  EXPECT_EQ(tail.back().a, flight::kRingSize + 40);
  EXPECT_EQ(tail.back().b, (flight::kRingSize + 40) * 2);
  flight::clear();
  EXPECT_TRUE(flight::tail().empty());
}

TEST(FlightRecorder, LongTagsTruncateAndFormatIsReadable) {
  flight::clear();
  flight::note("a_very_long_tag_name_that_overflows", 1, 2);
  const std::vector<flight::Event> tail = flight::tail();
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(std::strlen(tail[0].tag), flight::kTagBytes - 1);
  const std::string line = flight::format(tail[0]);
  EXPECT_NE(line.find("a_very_long_tag_name_th"), std::string::npos);
  EXPECT_NE(line.find("a=1"), std::string::npos);
  EXPECT_NE(line.find("b=2"), std::string::npos);
  flight::clear();
}

// ---------------------------------------------------------------------------
// Trace thread lanes.

TEST_F(ObsTest, SpansFromDifferentThreadsLandInDifferentLanes) {
  Tracer::instance().clear();
  set_trace_enabled(true);
  // Keep both threads alive until both spans have closed: a joined thread's
  // std::thread::id may be reused, which would collapse the dense tids.
  std::atomic<int> done{0};
  const auto body = [&done](const char* name) {
    { const TraceSpan s(name, "test"); }
    ++done;
    while (done.load() < 2) std::this_thread::yield();
  };
  std::thread t1(body, "lane_a");
  std::thread t2(body, "lane_b");
  t1.join();
  t2.join();
  const auto events = Tracer::instance().events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].tid, events[1].tid);
}

TEST(ObsMetrics, RssSamplingTracksAMonotonicPeak) {
  const std::uint64_t now = sample_rss_bytes();
  EXPECT_GT(now, 0u);  // /proc/self/statm exists on every CI target
  const std::uint64_t peak = peak_rss_bytes();
  EXPECT_GE(peak, now);
  // A second sample can only raise the recorded peak.
  sample_rss_bytes();
  EXPECT_GE(peak_rss_bytes(), peak);
}

TEST(ObsLog, ParseLogLevelAcceptsTheFourLevels) {
  EXPECT_EQ(*parse_log_level("error"), LogLevel::kError);
  EXPECT_EQ(*parse_log_level("warn"), LogLevel::kWarn);
  EXPECT_EQ(*parse_log_level("info"), LogLevel::kInfo);
  EXPECT_EQ(*parse_log_level("debug"), LogLevel::kDebug);
}

TEST(ObsLog, ParseLogLevelRejectsGarbage) {
  EXPECT_FALSE(parse_log_level("").ok());
  EXPECT_FALSE(parse_log_level("verbose").ok());
  EXPECT_FALSE(parse_log_level("DEBUG").ok());  // levels are lowercase
  EXPECT_FALSE(parse_log_level("2").ok());
}

TEST(ObsLog, LevelGatingIsMonotonic) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kWarn);
  EXPECT_TRUE(log_enabled(LogLevel::kError));
  EXPECT_TRUE(log_enabled(LogLevel::kWarn));
  EXPECT_FALSE(log_enabled(LogLevel::kInfo));
  EXPECT_FALSE(log_enabled(LogLevel::kDebug));
  set_log_level(saved);
}

}  // namespace
}  // namespace gfa::obs
