#pragma once
// Process-wide progress sink: the bridge between the extractor's reduction
// chain and whatever wants live progress (today: the isolated worker's
// heartbeat telemetry; tomorrow: the gfa_serve daemon's per-job status).
//
// Discipline mirrors metrics/tracing: progress_active() is one relaxed
// atomic load, and instrumentation sites test it before building a Progress
// record, so with no sink installed the cost is a single predictable branch.
// Reports happen at phase boundaries and checkpoint-cadence segment ends
// (thousands per run at most), never inner loops, so the mutex inside
// report_progress is uncontended noise.
//
// The sink callback may be invoked concurrently (the portfolio's --race mode
// runs engine attempts on the pool) and must be thread-safe; the installer
// (worker/harness.cpp's child telemetry) serializes pipe writes behind its
// own mutex anyway.

#include <cstdint>
#include <functional>

namespace gfa::obs {

/// One progress observation from a long-running phase.
struct Progress {
  const char* phase = "";       // e.g. "reduction_chain", "case2_lift"
  std::uint64_t step = 0;       // units of `phase` completed (RATO gates)
  std::uint64_t total = 0;      // total units, 0 when unknown
  std::uint64_t terms = 0;      // live rewriter term count, 0 when n/a
  std::uint64_t budget_bytes = 0;  // accounted bytes in use, 0 when unbudgeted
};

/// True iff a sink is installed; one relaxed load.
bool progress_active();

/// Installs (or, with nullptr/empty fn, removes) the process-wide sink.
void set_progress_sink(std::function<void(const Progress&)> sink);

/// Delivers `p` to the sink, if any. Safe to call from any thread.
void report_progress(const Progress& p);

}  // namespace gfa::obs
