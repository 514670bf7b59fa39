#include "frote/knn/sharded.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "frote/util/parallel.hpp"

namespace frote {

namespace {

bool is_identity(const std::vector<std::size_t>& ids) {
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] != i) return false;
  }
  return true;
}

}  // namespace

std::size_t ShardedKnnIndex::plan_shards(std::size_t n,
                                         const KnnIndexConfig& config) {
  const std::size_t target = std::max<std::size_t>(1, config.shard_target_rows);
  const std::size_t wanted = config.shards >= 2
                                 ? config.shards
                                 : std::max<std::size_t>(2, (n + target - 1) / target);
  // Never more shards than rows: every shard must be non-empty (an empty
  // explicit index list would mean "all rows" to the sub-engines).
  return std::max<std::size_t>(1, std::min(wanted, std::max<std::size_t>(1, n)));
}

ShardedKnnIndex::ShardedKnnIndex(const Dataset& data, MixedDistance distance,
                                 std::vector<std::size_t> indices,
                                 const KnnIndexConfig& config)
    : distance_(std::move(distance)), config_(config) {
  // An identity row set is kept implicit (row_ids_ empty): at the scales
  // this engine targets the mapping array would cost 8 bytes/row for a
  // lookup the shard offsets already encode.
  std::size_t n = indices.empty() ? data.size() : indices.size();
  if (!indices.empty() && !is_identity(indices)) {
    row_ids_ = std::move(indices);
  }
  total_rows_ = n;
  covers_prefix_ = row_ids_.empty();
  build(data);
}

void ShardedKnnIndex::build(const Dataset& data) {
  const std::size_t n = total_rows_;
  base_rows_ = n;
  tail_.reset();
  const std::size_t count = plan_shards(n, config_);
  shards_.clear();
  shards_.resize(count);
  // Shard boundaries depend only on (n, count); each shard builds its own
  // sub-index independently, so build order (= thread schedule) cannot
  // affect any result bit.
  parallel_for(count, 1, config_.threads, [&](std::size_t begin, std::size_t) {
    const std::size_t s = begin;
    const std::size_t lo = s * n / count;
    const std::size_t hi = (s + 1) * n / count;
    std::vector<std::size_t> ids;
    ids.reserve(hi - lo);
    for (std::size_t pos = lo; pos < hi; ++pos) {
      ids.push_back(dataset_index(pos));
    }
    shards_[s].begin = lo;
    shards_[s].index = make_single_knn_index(data, distance_, std::move(ids));
  });
}

void ShardedKnnIndex::rebuild_tail(const Dataset& data) {
  if (total_rows_ == base_rows_) {
    tail_.reset();
    return;
  }
  // The tail is small (bounded by tail_rebuild_threshold), so a fresh
  // BruteKnn per append costs little — and it re-fits the current distance
  // scales for free.
  std::vector<std::size_t> ids;
  ids.reserve(total_rows_ - base_rows_);
  for (std::size_t pos = base_rows_; pos < total_rows_; ++pos) {
    ids.push_back(dataset_index(pos));
  }
  tail_ = std::make_unique<BruteKnn>(data, distance_, std::move(ids));
}

std::size_t ShardedKnnIndex::tail_rebuild_threshold() const {
  // A pure function of the config (never of n or the thread count), so the
  // re-shard step is the same in every run. A quarter-shard of tail scan
  // per query is the agreed ceiling before re-sharding pays for itself.
  return std::max<std::size_t>(1024, config_.shard_target_rows / 4);
}

void ShardedKnnIndex::query_squared(std::span<const double> query,
                                    std::size_t k,
                                    std::vector<Neighbor>& out) const {
  out.clear();
  if (k == 0 || total_rows_ == 0) return;
  // Fan out: each shard reports its own k best by squared distance. The
  // per-shard lists land in per-shard slots, so the thread schedule is
  // invisible to the merge. Bind a reference to the caller's scratch before
  // the lambda: a thread_local name used inside a pool worker would resolve
  // to the worker's own instance.
  static thread_local std::vector<std::vector<Neighbor>> per_shard_tls;
  auto& per_shard = per_shard_tls;
  per_shard.resize(shards_.size());
  parallel_for(shards_.size(), 1, config_.threads,
               [&](std::size_t begin, std::size_t) {
                 shards_[begin].index->query_squared(query, k,
                                                     per_shard[begin]);
               });
  // Merge in ascending shard order under the (squared distance, global
  // index) total order. Contiguous ascending shards make the global
  // position a plain offset add, which preserves the index tie-break; the
  // k-best set under a total order does not depend on the partition, so
  // this equals a single index over the union bit for bit.
  std::vector<Neighbor> heap;
  heap.reserve(k + 1);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    for (const Neighbor& nb : per_shard[s]) {
      detail::heap_offer(heap, k, {shards_[s].begin + nb.index, nb.distance});
    }
  }
  if (tail_ != nullptr) {
    std::vector<Neighbor> tail_best;
    tail_->query_squared(query, k, tail_best);
    for (const Neighbor& nb : tail_best) {
      detail::heap_offer(heap, k, {base_rows_ + nb.index, nb.distance});
    }
  }
  out = detail::heap_sorted(std::move(heap));
}

bool ShardedKnnIndex::try_append(const Dataset& data,
                                 const MixedDistance& distance) {
  if (!covers_prefix_ || data.size() < total_rows_) return false;
  distance_ = distance;
  total_rows_ = data.size();
  if (total_rows_ - base_rows_ > tail_rebuild_threshold()) {
    // Deterministic re-shard: fold the tail back into the shard structure
    // (which re-fits the distance as a side effect).
    build(data);
    return true;
  }
  // Re-fit each shard in place in case the refit rescaled the distance
  // (BruteKnn::try_refit skips the repack when the scales are unchanged),
  // then rebuild the tail under the current scales.
  std::atomic<bool> ok{true};
  parallel_for(shards_.size(), 1, config_.threads,
               [&](std::size_t begin, std::size_t) {
                 if (!shards_[begin].index->try_refit(data, distance_)) {
                   ok.store(false, std::memory_order_relaxed);
                 }
               });
  if (!ok.load()) {
    build(data);
    return true;
  }
  rebuild_tail(data);
  return true;
}

bool ShardedKnnIndex::try_refit(const Dataset& data,
                                const MixedDistance& distance) {
  distance_ = distance;
  std::atomic<bool> ok{true};
  parallel_for(shards_.size(), 1, config_.threads,
               [&](std::size_t begin, std::size_t) {
                 if (!shards_[begin].index->try_refit(data, distance_)) {
                   ok.store(false, std::memory_order_relaxed);
                 }
               });
  if (!ok.load()) return false;
  rebuild_tail(data);
  return true;
}

}  // namespace frote
