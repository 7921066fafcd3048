#pragma once
// Minimal shared thread pool for the embarrassingly parallel loops of the
// abstraction pipeline. The pipeline is parallel at one level only, the
// innermost independent unit: the word lift's row and term loops (the O(k³)
// Cᵀ·Q·C transforms). Everything above the lift (spec and impl, hierarchy
// blocks, output words) runs in order on the calling thread, so those loops
// always find the pool free. The other caller is the portfolio's --race mode.
//
// Semantics:
//   * parallel_for(n, fn) runs fn(i) for every i in [0, n), blocking until
//     all calls have finished. Work is claimed in chunks from a global pool
//     and the calling thread participates, so progress never depends on a
//     worker being free.
//   * Nested calls (from inside pooled work) and calls while the pool is
//     busy degrade to serial execution on the calling thread — correct by
//     construction, never deadlocking. A loop that runs serially (n == 1,
//     width 1, pool busy) does not count as pooled work, so the loops nested
//     inside it may still use the pool.
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

/// Runs fn(i) for i in [0, n); see the header comment for guarantees.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  const ExecControl* control = nullptr);

}  // namespace gfa
