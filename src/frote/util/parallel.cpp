#include "frote/util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "frote/util/env.hpp"

namespace frote {

namespace {

std::atomic<int> g_default_threads{0};  // 0 ⇒ resolve from the environment
/// FROTE_NUM_THREADS, clamped, as first read; 0 ⇒ not read yet. Every
/// parallel region asks for the default, so the environment is read once.
std::atomic<int> g_env_threads{0};

/// Upper bound on pool workers; far above any sane FROTE_NUM_THREADS and
/// low enough that a typo (e.g. "400") cannot exhaust the process.
constexpr int kMaxThreads = 256;

thread_local bool t_in_parallel = false;

/// One fan-out of chunk tasks. Workers and the submitting thread pull chunk
/// indices from `next` until exhausted; `done` counts completed chunks.
/// Heap-allocated and shared: a worker that wakes for a job keeps its own
/// reference, so a late worker touching the bookkeeping after the submitter
/// has already returned reads valid (exhausted) state, never a dead frame.
struct Job {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t total = 0;
  /// Pool workers allowed to join (the submitter always participates).
  int helper_limit = 0;
  std::atomic<int> helpers{0};
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::exception_ptr error;  // first exception, guarded by error_mu
  std::mutex error_mu;
};

/// Lazily-started shared worker pool. One job runs at a time (submissions
/// serialize on submit_mu_); nested parallel regions never reach the pool —
/// parallel_for/parallel_reduce run them inline on the calling worker.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  void run(std::size_t chunks, int threads,
           const std::function<void(std::size_t)>& fn) {
    std::unique_lock<std::mutex> submit_lock(submit_mu_);
    const int helpers = std::min<int>(
        threads - 1, static_cast<int>(std::min<std::size_t>(chunks, kMaxThreads)));
    ensure_workers(helpers);

    auto job = std::make_shared<Job>();
    job->fn = &fn;
    job->total = chunks;
    job->helper_limit = helpers;
    {
      std::lock_guard<std::mutex> lock(mu_);
      current_ = job;
    }
    cv_.notify_all();

    // The submitting thread participates: it drains chunks alongside the
    // workers, then waits for the stragglers.
    work_on(*job);
    {
      std::unique_lock<std::mutex> lock(mu_);
      done_cv_.wait(lock, [&] { return job->done.load() == job->total; });
      if (current_ == job) current_ = nullptr;
    }
    if (job->error) std::rethrow_exception(job->error);
  }

 private:
  Pool() = default;

  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& worker : workers_) worker.join();
  }

  void ensure_workers(int count) {
    std::lock_guard<std::mutex> lock(mu_);
    while (static_cast<int>(workers_.size()) < count) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  void worker_loop() {
    t_in_parallel = true;  // nested regions on this thread run inline
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      cv_.wait(lock, [&] { return stop_ || current_ != nullptr; });
      if (stop_) return;
      std::shared_ptr<Job> job = current_;  // own a reference past unlock
      lock.unlock();
      // Honour the job's thread budget: once helper_limit pool threads have
      // joined, later wakers leave it alone (the submitter is not counted).
      if (job->helpers.fetch_add(1) < job->helper_limit) {
        work_on(*job);
      }
      lock.lock();
      if (current_ == job && job->next.load() >= job->total) {
        current_ = nullptr;  // fully claimed: stop waking for it
      }
    }
  }

  void work_on(Job& job) {
    const bool was_in_parallel = t_in_parallel;
    t_in_parallel = true;
    for (;;) {
      const std::size_t c = job.next.fetch_add(1);
      if (c >= job.total) break;
      try {
        (*job.fn)(c);
      } catch (...) {
        std::lock_guard<std::mutex> lock(job.error_mu);
        if (!job.error) job.error = std::current_exception();
      }
      if (job.done.fetch_add(1) + 1 == job.total) {
        // Take mu_ before notifying so the submitter cannot check the
        // predicate and go to sleep between our increment and the notify
        // (the classic lost-wakeup interleaving).
        { std::lock_guard<std::mutex> lock(mu_); }
        done_cv_.notify_all();
      }
    }
    t_in_parallel = was_in_parallel;
  }

  std::mutex submit_mu_;  // serializes whole jobs
  std::mutex mu_;         // guards current_/stop_/workers_
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
  std::shared_ptr<Job> current_;
  bool stop_ = false;
};

}  // namespace

int resolve_threads(int requested) {
  int n = requested > 0 ? requested : default_threads();
  if (n < 1) n = 1;
  return std::min(n, kMaxThreads);
}

void set_default_threads(int n) {
  g_default_threads.store(n > 0 ? n : 0);
  if (n <= 0) g_env_threads.store(0);  // the next default re-reads the env
}

int default_threads() {
  const int pinned = g_default_threads.load();
  if (pinned > 0) return std::min(pinned, kMaxThreads);
  int from_env = g_env_threads.load(std::memory_order_relaxed);
  if (from_env == 0) {
    // Concurrent first readers compute the same value; either store wins.
    from_env = std::clamp(env_int("FROTE_NUM_THREADS", 1), 1, kMaxThreads);
    g_env_threads.store(from_env, std::memory_order_relaxed);
  }
  return from_env;
}

bool in_parallel_region() { return t_in_parallel; }

namespace detail {

void pool_run(std::size_t chunks, int threads,
              const std::function<void(std::size_t)>& fn) {
  Pool::instance().run(chunks, threads, fn);
}

}  // namespace detail

}  // namespace frote
