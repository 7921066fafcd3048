#include "util/parallel_for.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/log.h"
#include "obs/metrics.h"
#include "util/parse_number.h"

namespace gfa {

namespace {

/// Set while the current thread is executing pooled work (a worker, or the
/// caller inside a pooled loop); nested parallel_for calls then run serially.
/// A serial loop does not set it, so it never starves the loops inside it.
thread_local bool tls_in_parallel = false;

/// set_parallel_thread_count() target. Non-zero beats GFA_THREADS so a
/// --threads flag parsed before the pool's first use takes effect without
/// spawning (and immediately joining) a throwaway set of workers.
std::atomic<unsigned> g_thread_override{0};
/// True once the pool singleton exists; lets set_parallel_thread_count()
/// avoid constructing it eagerly (a tool that forks isolated workers should
/// not carry a pre-fork thread pool into its children).
std::atomic<bool> g_pool_live{false};

unsigned decide_thread_count() {
  if (const unsigned n = g_thread_override.load(std::memory_order_relaxed)) {
    GFA_LOG_DEBUG("parallel_for",
                  "thread pool size " << n << " (set_parallel_thread_count)");
    return n;
  }
  if (const char* env = std::getenv("GFA_THREADS")) {
    const Result<unsigned> v = parse_unsigned(env, 1, 1024);
    if (!v.ok()) {
      GFA_LOG_ERROR("parallel_for",
                    "GFA_THREADS must be an integer in [1, 1024], got '"
                        << env << "' (" << v.status().to_string() << ")");
      std::exit(2);
    }
    GFA_LOG_DEBUG("parallel_for", "thread pool size " << *v
                                      << " (from GFA_THREADS)");
    return *v;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  const unsigned n = hw >= 1 ? hw : 1;
  GFA_LOG_DEBUG("parallel_for",
                "thread pool size " << n << " (hardware default)");
  return n;
}

/// One loop in flight at a time; workers claim chunks off an atomic cursor.
struct Job {
  const std::function<void(std::size_t)>* fn = nullptr;
  const ExecControl* control = nullptr;
  std::size_t n = 0;
  std::size_t chunk = 1;
  std::atomic<std::size_t> next{0};
  std::atomic<unsigned> active{0};  // workers currently inside the loop body
  // Failure propagation is first-error-BY-INDEX, not by wall-clock, so a
  // run that fails is reproducible across thread schedules (fault-injection
  // sweeps depend on this). Chunks are claimed off the monotonic cursor, so
  // every chunk below any claimed chunk was also claimed and runs to
  // completion or to its own error even after the drain fires; the chunk
  // holding the globally minimal failing index therefore always executes,
  // and keeping the minimum makes the rethrown error schedule-independent.
  std::exception_ptr error;          // failure at the lowest index so far
  std::size_t error_index = 0;       // both guarded by error_mutex
  std::size_t error_count = 0;
  std::mutex error_mutex;

  void work(bool is_worker) {
    std::size_t chunks_done = 0;
    for (;;) {
      const std::size_t begin = next.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= n) break;
      ++chunks_done;
      const std::size_t end = begin + chunk < n ? begin + chunk : n;
      std::size_t i = begin;
      try {
        throw_if_stopped(control);  // deadline/cancel checkpoint per chunk
        for (; i < end; ++i) (*fn)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        ++error_count;
        if (!error || i < error_index) {
          error = std::current_exception();
          error_index = i;
        }
        next.store(n, std::memory_order_relaxed);  // drain remaining chunks
      }
    }
    // Worker-vs-caller chunk counts give a crude pool-utilization signal.
    if (chunks_done > 0) {
      if (is_worker)
        GFA_COUNT("parallel.worker_chunks", chunks_done);
      else
        GFA_COUNT("parallel.caller_chunks", chunks_done);
    }
  }
};

class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  unsigned thread_count() const {
    return size_.load(std::memory_order_relaxed);
  }

  /// Joins the current workers and respawns `n - 1` of them. Serialized
  /// against pooled loops via run_mutex, so no worker is mid-chunk when the
  /// join happens.
  void resize(unsigned n) {
    std::lock_guard<std::mutex> run_lock(run_mutex);
    if (n == thread_count()) return;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : threads_) t.join();
    threads_.clear();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = false;
      size_.store(n, std::memory_order_relaxed);
    }
    for (unsigned i = 0; i + 1 < n; ++i)
      threads_.emplace_back([this] { worker(); });
  }

  void run(std::size_t n, const std::function<void(std::size_t)>& fn,
           const ExecControl* control) {
    Job job;
    job.fn = &fn;
    job.control = control;
    job.n = n;
    job.chunk = n / (thread_count() * 8) + 1;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      job_ = &job;
      ++generation_;
    }
    cv_.notify_all();
    job.work(/*is_worker=*/false);  // the caller participates
    {
      // Wait for workers still inside a claimed chunk.
      std::unique_lock<std::mutex> lock(mutex_);
      job_ = nullptr;
      done_cv_.wait(lock, [&] { return job.active.load() == 0; });
    }
    if (job.error) {
      if (job.error_count > 1)
        GFA_COUNT("parallel.suppressed_errors", job.error_count - 1);
      std::rethrow_exception(job.error);
    }
  }

  /// Serializes top-level loops; a second concurrent caller runs serially.
  std::mutex run_mutex;

 private:
  Pool() {
    const unsigned n = decide_thread_count();
    size_.store(n, std::memory_order_relaxed);
    for (unsigned i = 0; i + 1 < n; ++i)
      threads_.emplace_back([this] { worker(); });
    g_pool_live.store(true, std::memory_order_release);
  }

  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  void worker() {
    tls_in_parallel = true;
    std::uint64_t seen = 0;
    for (;;) {
      Job* job = nullptr;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return stop_ || (job_ != nullptr && generation_ != seen); });
        if (stop_) return;
        seen = generation_;
        job = job_;
        job->active.fetch_add(1);
      }
      job->work(/*is_worker=*/true);
      {
        std::lock_guard<std::mutex> lock(mutex_);
        job->active.fetch_sub(1);
      }
      done_cv_.notify_all();
    }
  }

  std::vector<std::thread> threads_;
  std::atomic<unsigned> size_{1};  // threads_.size() + 1; lock-free readers
  std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  Job* job_ = nullptr;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
};

}  // namespace

unsigned parallel_thread_count() { return Pool::instance().thread_count(); }

void set_parallel_thread_count(unsigned n) {
  if (n < 1) n = 1;
  if (n > 1024) n = 1024;
  g_thread_override.store(n, std::memory_order_relaxed);
  // Only resize a pool that already exists; otherwise the override is picked
  // up at first use (keeps pre-fork tools thread-free until they need loops).
  if (g_pool_live.load(std::memory_order_acquire)) Pool::instance().resize(n);
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  const ExecControl* control) {
  if (n == 0) return;
  Pool& pool = Pool::instance();
  const bool serial = n == 1 || tls_in_parallel || pool.thread_count() == 1 ||
                      !pool.run_mutex.try_lock();
  GFA_COUNT("parallel.items", n);
  if (serial) {
    GFA_COUNT("parallel.serial_loops", 1);
    for (std::size_t i = 0; i < n; ++i) {
      throw_if_stopped(control);
      fn(i);
    }
    return;
  }
  GFA_COUNT("parallel.loops", 1);
  std::lock_guard<std::mutex> lock(pool.run_mutex, std::adopt_lock);
  // Only a top-level caller gets here, so the flag was clear on entry.
  struct Mark {
    Mark() { tls_in_parallel = true; }
    ~Mark() { tls_in_parallel = false; }
  } mark;
  pool.run(n, fn, control);
}

}  // namespace gfa
