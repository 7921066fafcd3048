#pragma once
// Minimal shared thread pool for the embarrassingly parallel loops of the
// abstraction pipeline (the O(k³) Cᵀ·Q·C transforms of the word lift,
// per-output-word extraction, concurrent hierarchy blocks).
//
// Semantics:
//   * parallel_for(n, fn) runs fn(i) for every i in [0, n), blocking until
//     all calls have finished. Work is claimed in chunks from a global pool
//     and the calling thread participates, so progress never depends on a
//     worker being free.
//   * Nested calls (from inside a pool task) and calls while the pool is
//     busy degrade to serial execution on the calling thread — correct by
//     construction, never deadlocking.
//   * The first exception thrown by fn is captured and rethrown on the
//     calling thread once the loop has drained.
//   * An optional ExecControl is polled between chunks (and between serial
//     iterations); expiry throws StatusError(kDeadlineExceeded/kCancelled)
//     on the calling thread, so time-bounded engines stop promptly even
//     inside pooled loops.
//
// The pool is sized to GFA_THREADS when that environment variable is set. A
// malformed value (non-numeric, zero, > 1024, trailing garbage) is rejected
// with a diagnostic and exit(2) rather than silently falling back — the same
// policy as GFA_BENCH_MAX_K. Unset means std::thread::hardware_concurrency().
// set_parallel_thread_count() overrides both at runtime (gfa_tool --threads,
// the bench scaling sections, the determinism tests).

#include <cstddef>
#include <functional>

#include "util/exec_control.h"

namespace gfa {

/// Number of threads participating in parallel loops (>= 1, counting the
/// caller).
unsigned parallel_thread_count();

/// Overrides the pool size (clamped to [1, 1024]); beats GFA_THREADS. A live
/// pool is resized in place: the call blocks until no pooled loop is in
/// flight, joins the old workers, and respawns. Must not be called from
/// inside a parallel loop body (it would deadlock on the loop it is part of).
void set_parallel_thread_count(unsigned n);

/// Number of threads a parallel_for launched *right now* would use: the pool
/// width at top level, 1 when already inside pool work (nested loops degrade
/// to serial). Sizing hint for per-thread work splits; not a reservation.
unsigned parallel_available_width();

/// Runs fn(i) for i in [0, n); see the header comment for guarantees.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  const ExecControl* control = nullptr);

/// Runs a and b, potentially concurrently; rethrows the first exception.
void parallel_invoke(const std::function<void()>& a,
                     const std::function<void()>& b,
                     const ExecControl* control = nullptr);

}  // namespace gfa
