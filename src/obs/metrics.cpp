#include "obs/metrics.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdlib>

namespace gfa::obs {

namespace {

std::atomic<bool> g_metrics_enabled{false};

/// Process-lifetime RSS high-water mark, tracked unconditionally so crash
/// and worker reports carry it even when the metrics registry is off.
std::atomic<std::uint64_t> g_peak_rss_bytes{0};

/// Every domain metric the engines export, pre-registered so snapshots carry
/// a stable schema. Kept in sync with the DESIGN.md "Observability" table.
struct KnownMetric {
  const char* name;
  MetricKind kind;
};

constexpr KnownMetric kKnownMetrics[] = {
    // Gröbner reduction steps across every flow: one per gate-tail
    // substitution of the RATO backward-rewriting chain (abstraction,
    // ideal-membership) and one per division step inside normal_form.
    {"reduction_steps", MetricKind::kCounter},
    // normal_form (poly/mpoly.cpp)
    {"normal_form.calls", MetricKind::kCounter},
    {"normal_form.peak_terms", MetricKind::kGauge},
    // Buchberger (poly/groebner.cpp) — pairs_skipped counts product-criterion
    // prunes; pairs_reduced is the paper's §5 "one critical pair" claim.
    {"buchberger.pairs_generated", MetricKind::kCounter},
    {"buchberger.pairs_skipped", MetricKind::kCounter},
    {"buchberger.pairs_reduced", MetricKind::kCounter},
    {"buchberger.basis_added", MetricKind::kCounter},
    {"buchberger.max_poly_terms", MetricKind::kGauge},
    // Extractor (abstraction/extractor.cpp)
    {"extract.words", MetricKind::kCounter},
    {"extract.substitutions", MetricKind::kCounter},
    {"extract.expansions", MetricKind::kCounter},
    {"extract.peak_terms", MetricKind::kGauge},
    // Canonical-form equivalence (abstraction/equivalence.cpp)
    {"equivalence.checks", MetricKind::kCounter},
    // Ideal-membership baseline (baselines/ideal_membership.cpp)
    {"ideal_membership.runs", MetricKind::kCounter},
    // CDCL SAT (baselines/sat/solver.cpp), flushed once per solve().
    {"sat.solves", MetricKind::kCounter},
    {"sat.decisions", MetricKind::kCounter},
    {"sat.propagations", MetricKind::kCounter},
    {"sat.conflicts", MetricKind::kCounter},
    {"sat.restarts", MetricKind::kCounter},
    {"sat.learned", MetricKind::kCounter},
    // BDD (baselines/bdd/bdd.cpp), flushed per netlist build / final check.
    {"bdd.nodes_allocated", MetricKind::kCounter},
    {"bdd.cache_lookups", MetricKind::kCounter},
    {"bdd.cache_hits", MetricKind::kCounter},
    // Fraig sweeping (baselines/aig/aig.cpp)
    {"fraig.merges", MetricKind::kCounter},
    {"fraig.sat_calls", MetricKind::kCounter},
    {"fraig.refinements", MetricKind::kCounter},
    // Thread pool (util/parallel_for.cpp) — worker vs caller chunk counts
    // give a crude utilization ratio.
    {"parallel.loops", MetricKind::kCounter},
    {"parallel.serial_loops", MetricKind::kCounter},
    {"parallel.items", MetricKind::kCounter},
    {"parallel.caller_chunks", MetricKind::kCounter},
    {"parallel.worker_chunks", MetricKind::kCounter},
    // Resident-set high-water mark sampled from /proc/self/statm at phase
    // boundaries (see sample_rss_bytes) — the "actual" memory column next to
    // the byte-accounted budget_peak in reports and BENCH JSON.
    {"process.peak_rss_bytes", MetricKind::kGauge},
    // Verification service (src/service/service.cpp): job admission and
    // outcome counters, plus the canonical-form cache's hit/miss/corruption
    // tallies (src/service/canon_cache.cpp).
    {"service.jobs_accepted", MetricKind::kCounter},
    {"service.jobs_completed", MetricKind::kCounter},
    {"service.jobs_rejected", MetricKind::kCounter},
    {"service.jobs_failed", MetricKind::kCounter},
    {"service.cache_hits", MetricKind::kCounter},
    {"service.cache_misses", MetricKind::kCounter},
    {"service.cache_corrupt_dropped", MetricKind::kCounter},
    {"service.cache_evictions", MetricKind::kCounter},
    // Verdict certification + poison-job quarantine (src/service/service.cpp):
    // failed equivalence cross-checks, per-fingerprint crash strikes,
    // fingerprints that tripped the strike limit, and jobs answered from
    // quarantine without forking a worker.
    {"service.certify_failed", MetricKind::kCounter},
    {"service.quarantined.strikes", MetricKind::kCounter},
    {"service.quarantined.tripped", MetricKind::kCounter},
    {"service.quarantined.fast_fail", MetricKind::kCounter},
};

/// Histograms pre-registered alongside the scalar schema. Each contributes
/// `<name>.count/.p50/.p90/.p99` keys to snapshots once it has samples.
constexpr const char* kKnownHistograms[] = {
    // Latency of one gate-tail substitution in the serial reduction chain
    // (microseconds; sampled, not exhaustive — see extractor.cpp).
    "rewriter.substitution_us",
    // Linear-probe chain length of sampled packed term-map lookups.
    "rewriter.probe_len",
    // Wall time of one isolated-worker attempt (milliseconds).
    "worker.attempt_wall_ms",
    // End-to-end wall time of one service job, queue wait included
    // (milliseconds).
    "service.job_wall_ms",
};

}  // namespace

bool metrics_enabled() {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

void set_metrics_enabled(bool enabled) {
  g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

std::uint64_t sample_rss_bytes() {
  // Field 2 of /proc/self/statm is resident pages. Raw read + hand parse:
  // this is also called from worker heartbeat paths where iostreams would be
  // disproportionate, and the file is a dozen bytes.
  char buf[128];
  const int fd = ::open("/proc/self/statm", O_RDONLY);
  if (fd < 0) return 0;
  const ssize_t n = ::read(fd, buf, sizeof(buf) - 1);
  ::close(fd);
  if (n <= 0) return 0;
  buf[n] = '\0';
  const char* p = buf;
  while (*p >= '0' && *p <= '9') ++p;  // skip field 1 (total program size)
  while (*p == ' ') ++p;
  std::uint64_t pages = 0;
  while (*p >= '0' && *p <= '9') pages = pages * 10 + (*p++ - '0');
  static const std::uint64_t kPage =
      static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
  const std::uint64_t rss = pages * kPage;
  std::uint64_t cur = g_peak_rss_bytes.load(std::memory_order_relaxed);
  while (cur < rss && !g_peak_rss_bytes.compare_exchange_weak(
                          cur, rss, std::memory_order_relaxed)) {
  }
  GFA_GAUGE_MAX("process.peak_rss_bytes", rss);
  return rss;
}

std::uint64_t peak_rss_bytes() {
  return g_peak_rss_bytes.load(std::memory_order_relaxed);
}

Metrics& Metrics::instance() {
  static Metrics metrics;
  return metrics;
}

Metrics::Metrics() {
  for (const KnownMetric& m : kKnownMetrics)
    metrics_.try_emplace(m.name, m.kind);
  for (const char* name : kKnownHistograms)
    histograms_.try_emplace(name);
  if (const char* env = std::getenv("GFA_METRICS")) {
    if (env[0] != '\0' && !(env[0] == '0' && env[1] == '\0'))
      set_metrics_enabled(true);
  }
}

Metric& Metrics::get(std::string_view name, MetricKind kind) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = metrics_.find(name);
  if (it == metrics_.end())
    it = metrics_.try_emplace(std::string(name), kind).first;
  return it->second;
}

Histogram& Metrics::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_.try_emplace(std::string(name)).first;
  return it->second;
}

void Metrics::fold_histograms(MetricsSnapshot& out) const {
  for (const auto& [name, hist] : histograms_) {
    if (hist.count() == 0) continue;  // keep empty histograms off reports
    out.emplace(name + ".count", hist.count());
    out.emplace(name + ".p50", hist.percentile(0.50));
    out.emplace(name + ".p90", hist.percentile(0.90));
    out.emplace(name + ".p99", hist.percentile(0.99));
  }
}

MetricsSnapshot Metrics::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot out;
  for (const auto& [name, metric] : metrics_) out.emplace(name, metric.value());
  fold_histograms(out);
  return out;
}

MetricsSnapshot Metrics::delta(const MetricsSnapshot& before) const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot out;
  for (const auto& [name, metric] : metrics_) {
    const std::uint64_t now = metric.value();
    if (metric.kind() == MetricKind::kGauge) {
      out.emplace(name, now);
      continue;
    }
    const auto it = before.find(name);
    const std::uint64_t base = it == before.end() ? 0 : it->second;
    out.emplace(name, now >= base ? now - base : 0);
  }
  fold_histograms(out);
  // Histogram .count keys subtract like counters; percentiles stay as folded
  // (current distribution — per-run percentile subtraction is meaningless).
  for (auto& [name, value] : out) {
    constexpr std::string_view kCount = ".count";
    if (name.size() > kCount.size() &&
        std::string_view(name).substr(name.size() - kCount.size()) == kCount) {
      const auto it = before.find(name);
      if (it != before.end()) value = value >= it->second ? value - it->second : 0;
    }
  }
  return out;
}

void Metrics::reset_all() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, metric] : metrics_) metric.reset();
  for (auto& [name, hist] : histograms_) hist.reset();
}

}  // namespace gfa::obs
