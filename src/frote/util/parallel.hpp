// Deterministic parallel execution for the retrain/eval hot paths.
//
// The FROTE loop is dominated by model retraining and dataset-wide
// evaluation; exploiting cores must not cost reproducibility, because
// tests/test_determinism.cpp locks seed → bit-identical output. The
// primitives here make `threads = 1` and `threads = N` bit-identical *by
// construction*:
//
//   - Work over [0, n) is split into fixed chunk boundaries that depend only
//     on (n, grain) — never on the thread count. Chunk c covers
//     [c·grain, min(n, (c+1)·grain)).
//   - parallel_reduce combines per-chunk partial results in ascending chunk
//     order, so floating-point accumulation order is a pure function of
//     (n, grain) too. The serial path executes the *same* chunked plan
//     inline; there is no separate single-threaded code shape to diverge.
//
// Thread count resolution (resolve_threads): an explicit per-call request
// wins; otherwise the process default applies — set_default_threads(n), or
// the FROTE_NUM_THREADS environment variable, or 1 (today's serial
// behaviour). The shared pool is lazily initialized on the first parallel
// region that actually wants >1 threads; a nested parallel region executes
// inline on the calling worker (same chunk plan, sequential), so components
// can compose without deadlock.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

namespace frote {

/// Effective thread count for a parallel region. `requested` > 0 wins;
/// 0 defers to the process default (set_default_threads, else the
/// FROTE_NUM_THREADS environment variable, else 1). Always >= 1.
int resolve_threads(int requested);

/// Process-wide default used when a component's `threads` knob is 0.
/// `n` > 0 pins the default; n == 0 restores env-var resolution and drops
/// the cached FROTE_NUM_THREADS, so the next default reads it again.
void set_default_threads(int n);

/// The process default that resolve_threads(0) would return. The
/// environment is read on first use and cached (see set_default_threads).
int default_threads();

/// True while the calling thread is executing inside a parallel region;
/// nested regions run inline (same chunk plan, sequential).
bool in_parallel_region();

/// Number of fixed chunks for n items at the given grain (>= 1 items each).
inline std::size_t chunk_count(std::size_t n, std::size_t grain) {
  if (n == 0) return 0;
  if (grain == 0) grain = 1;
  return (n + grain - 1) / grain;
}

namespace detail {
/// Execute fn(chunk) for every chunk in [0, chunks) on the shared pool,
/// using up to `threads` threads including the caller. Blocks until all
/// chunks completed; rethrows the first exception a chunk threw.
void pool_run(std::size_t chunks, int threads,
              const std::function<void(std::size_t)>& fn);
}  // namespace detail

/// Run body(begin, end) over fixed chunks of [0, n). Boundaries depend only
/// on (n, grain); chunks may execute concurrently and in any order, so the
/// body must only touch disjoint per-index (or per-chunk) state.
template <typename Body>
void parallel_for(std::size_t n, std::size_t grain, int threads, Body&& body) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  const std::size_t chunks = chunk_count(n, grain);
  const int t = resolve_threads(threads);
  if (t <= 1 || chunks <= 1 || in_parallel_region()) {
    for (std::size_t c = 0; c < chunks; ++c) {
      body(c * grain, std::min(n, (c + 1) * grain));
    }
    return;
  }
  detail::pool_run(chunks, t, [&](std::size_t c) {
    body(c * grain, std::min(n, (c + 1) * grain));
  });
}

/// Chunked reduction: acc starts from `init`; every chunk computes
/// map(begin, end) -> T independently, and combine(acc, partial) folds the
/// partials in ascending chunk order. Because the fold order is fixed by
/// (n, grain) alone, the result is bit-identical for every thread count.
template <typename T, typename Map, typename Combine>
T parallel_reduce(std::size_t n, std::size_t grain, int threads, T init,
                  Map&& map, Combine&& combine) {
  T acc = std::move(init);
  if (n == 0) return acc;
  if (grain == 0) grain = 1;
  const std::size_t chunks = chunk_count(n, grain);
  const int t = resolve_threads(threads);
  if (t <= 1 || chunks <= 1 || in_parallel_region()) {
    for (std::size_t c = 0; c < chunks; ++c) {
      combine(acc, map(c * grain, std::min(n, (c + 1) * grain)));
    }
    return acc;
  }
  std::vector<std::optional<T>> partials(chunks);
  detail::pool_run(chunks, t, [&](std::size_t c) {
    partials[c].emplace(map(c * grain, std::min(n, (c + 1) * grain)));
  });
  for (std::size_t c = 0; c < chunks; ++c) {
    combine(acc, std::move(*partials[c]));
  }
  return acc;
}

}  // namespace frote
