#pragma once
// Shared helpers for the benchmark binaries.
//
// Every bench models one table or figure of the paper's evaluation (see
// DESIGN.md's per-experiment index). Field-size ladders default to
// laptop-scale runs; set GFA_BENCH_MAX_K to extend them up to the full NIST
// set (233, 283, 409, 571) when you have the time budget of the paper's
// 24-hour runs.
//
// Each bench binary also writes a machine-readable BENCH_<name>.json next to
// its working directory via JsonReporter, so the performance trajectory of
// the repo is recorded run over run (k, wall time, peak terms, substitutions,
// plus bench-specific extras such as kernel-vs-generic speedups).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "abstraction/extractor.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/json_writer.h"
#include "util/parallel_for.h"
#include "util/parse_number.h"

namespace gfa::bench {

/// The NIST ECC field sizes of the paper's Tables 1 and 2.
inline const std::vector<unsigned>& nist_sizes() {
  static const std::vector<unsigned> kSizes = {163, 233, 283, 409, 571};
  return kSizes;
}

/// Parses GFA_BENCH_MAX_K; exits with a diagnostic on a malformed value
/// rather than silently benching nothing (atoi's 0 on garbage).
inline unsigned max_k_from_env(unsigned default_max) {
  const char* env = std::getenv("GFA_BENCH_MAX_K");
  if (env == nullptr) return default_max;
  const Result<unsigned> v = parse_unsigned(env, 1, 1000000);
  if (!v.ok()) {
    std::fprintf(stderr,
                 "GFA_BENCH_MAX_K must be a positive integer, got '%s' (%s)\n",
                 env, v.status().to_string().c_str());
    std::exit(2);
  }
  return *v;
}

/// Returns `base` extended by every NIST size <= GFA_BENCH_MAX_K
/// (default `default_max`).
inline std::vector<unsigned> ladder(std::vector<unsigned> base,
                                    unsigned default_max) {
  const unsigned max_k = max_k_from_env(default_max);
  std::vector<unsigned> out;
  for (unsigned k : base)
    if (k <= max_k) out.push_back(k);
  for (unsigned k : nist_sizes())
    if (k <= max_k && (out.empty() || k > out.back())) out.push_back(k);
  return out;
}

/// One measured configuration of a bench.
struct BenchRecord {
  std::string name;              // e.g. "Table1/Mastrovito" or "mul"
  unsigned k = 0;                // field size
  double wall_ms = 0.0;          // wall-clock time of the measured work
  std::size_t peak_terms = 0;    // extraction memory proxy (0 if n/a)
  std::size_t substitutions = 0; // RATO substitution count (0 if n/a)
  /// Bench-specific numeric extras, e.g. {"speedup", 32.5}.
  std::vector<std::pair<std::string, double>> extra;
  /// Elapsed per-phase milliseconds (from the obs tracer), e.g.
  /// {"reduction_chain", 812.4} — written as a "phases" object so
  /// BENCH_*.json records where the time went, not just the total.
  std::vector<std::pair<std::string, double>> phases;
};

/// Folds the tracer's span buffer into BenchRecord::phases (total ms per
/// phase name) and clears the buffer so the next measurement starts clean.
/// Call with tracing enabled (set_trace_enabled(true)) around the measured
/// region.
inline std::vector<std::pair<std::string, double>> drain_phase_times() {
  std::vector<std::pair<std::string, double>> out;
  for (const auto& [name, total] : obs::Tracer::instance().aggregate())
    out.emplace_back(name, total.total_ms);
  obs::Tracer::instance().clear();
  return out;
}

/// Accumulates records and writes BENCH_<name>.json on destruction or on an
/// explicit write(). The file is one object: a header ("bench", "threads" —
/// the pool width the ladder ran at) plus the "records" array; scaling
/// records carry their own per-record "threads" extra.
class JsonReporter {
 public:
  explicit JsonReporter(std::string bench_name)
      : bench_(bench_name), path_("BENCH_" + std::move(bench_name) + ".json") {}

  JsonReporter(const JsonReporter&) = delete;
  JsonReporter& operator=(const JsonReporter&) = delete;

  ~JsonReporter() {
    try {
      write();
    } catch (...) {
      // Never throw out of a destructor; the bench results already printed.
    }
  }

  void add(BenchRecord record) { records_.push_back(std::move(record)); }

  void write() const {
    std::ofstream out(path_);
    if (!out) {
      GFA_LOG_WARN("bench", "cannot write " << path_);
      return;
    }
    JsonWriter w(out);
    w.begin_object();
    w.member("bench", bench_);
    w.member("threads", parallel_thread_count());
    // /proc-sampled process peak across the whole ladder — the memory
    // trajectory next to the per-record peak_terms proxy.
    obs::sample_rss_bytes();
    w.member("peak_rss_bytes", obs::peak_rss_bytes());
    w.key("records");
    w.begin_array();
    for (const BenchRecord& r : records_) {
      w.begin_object();
      w.member("name", r.name);
      w.member("k", r.k);
      w.member("wall_ms", r.wall_ms);
      w.member("peak_terms", static_cast<std::uint64_t>(r.peak_terms));
      w.member("substitutions", static_cast<std::uint64_t>(r.substitutions));
      for (const auto& [key, value] : r.extra) w.member(key, value);
      if (!r.phases.empty()) {
        w.key("phases");
        w.begin_object();
        for (const auto& [phase, ms] : r.phases) w.member(phase, ms);
        w.end_object();
      }
      w.end_object();
    }
    w.end_array();
    w.end_object();
    out << "\n";
  }

  const std::string& path() const { return path_; }

 private:
  std::string bench_;
  std::string path_;
  std::vector<BenchRecord> records_;
};

/// Scaling section: re-extracts one circuit at pool widths 1/2/4/8 and adds
/// one record per width (the per-record "threads" extra plus the usual
/// "phases" object, so reduction_chain ms vs width is directly readable from
/// BENCH_*.json). The determinism contract is enforced here: a canonical
/// polynomial that differs across widths aborts the bench.
/// Restores the pool width it found.
inline void add_scaling_records(JsonReporter& reporter, const std::string& name,
                                const Gf2k& field, const Netlist& netlist) {
  const unsigned restore = parallel_thread_count();
  std::optional<MPoly> reference;
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    set_parallel_thread_count(threads);
    obs::Tracer::instance().clear();
    const auto t0 = std::chrono::steady_clock::now();
    const WordFunction fn = extract_word_function(netlist, field);
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    if (!reference) {
      reference = fn.g;
    } else if (!(fn.g == *reference)) {
      std::fprintf(stderr,
                   "%s: canonical polynomial at %u threads differs from the "
                   "1-thread result\n",
                   name.c_str(), threads);
      std::exit(3);
    }
    BenchRecord rec;
    rec.name = name;
    rec.k = field.k();
    rec.wall_ms = wall_ms;
    rec.peak_terms = fn.stats.peak_terms;
    rec.substitutions = fn.stats.substitutions;
    rec.extra = {{"threads", static_cast<double>(threads)},
                 {"rss_bytes", static_cast<double>(obs::sample_rss_bytes())}};
    rec.phases = drain_phase_times();
    reporter.add(rec);
  }
  set_parallel_thread_count(restore);
}

}  // namespace gfa::bench
