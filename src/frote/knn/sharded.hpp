// ShardedKnnIndex — the scale tier of make_knn_index (docs/DESIGN.md §8).
//
// Past KnnIndexConfig::shard_min_rows a single index stops paying: its
// build is one serial pass, and every query scans it from one thread.
// Sharding splits the indexed row set into contiguous ascending ranges of
// ~shard_target_rows rows — shard s covers positions [s·n/S, (s+1)·n/S) —
// and backs each range with its own BruteKnn (make_single_knn_index).
// Builds and queries fan out across shards on util/parallel.hpp (grain 1),
// so both scale with cores.
//
// Determinism is inherited, not re-proved: each shard computes exactly the
// distances a single index would (same packing, same summation order), and
// the merge folds per-shard top-k lists in ascending shard order under the
// (squared distance, row index) total order — the same discipline as
// parallel_reduce. Because shards are contiguous ascending
// ranges, a shard-local index remaps to the global position by adding the
// shard offset, which preserves the index tie-break. The k-best set under a
// total order is independent of how the candidates were partitioned, so
// sharded results are bit-identical to one index over the union, at every
// thread count and shard count (tests/test_sharded_knn.cpp). Merging
// happens on *squared* distances (query_squared) — taking square roots
// per shard first could collapse distinct squared values and break the
// tie-break equivalence.
//
// Appends (the FROTE loop growing D̂) go to a BruteKnn tail over the
// appended rows, queried after the shards; when the tail outgrows a
// threshold that is a pure function of the config — never the thread
// count — the whole index is deterministically re-sharded. A refit that
// rescales the distance re-fits every shard in place (KnnIndex::try_refit)
// instead of rebuilding the shard structure.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "frote/knn/knn.hpp"

namespace frote {

/// A deterministic sharded kNN index: contiguous shards, parallel fan-out,
/// ascending-order top-k merge. Results are bit-identical to a single
/// index over the same rows.
class ShardedKnnIndex : public KnnIndex {
 public:
  /// Index the rows of `data` at `indices` (or all rows when empty),
  /// partitioned into plan_shards(n, config) shards. `config.threads`
  /// bounds the build/query fan-out (0 ⇒ FROTE_NUM_THREADS) and never
  /// affects results.
  ShardedKnnIndex(const Dataset& data, MixedDistance distance,
                  std::vector<std::size_t> indices = {},
                  const KnnIndexConfig& config = {});

  void query_squared(std::span<const double> query, std::size_t k,
                     std::vector<Neighbor>& out) const override;
  std::size_t size() const override { return total_rows_; }
  std::size_t dataset_index(std::size_t i) const override {
    return row_ids_.empty() ? i : row_ids_[i];
  }
  /// Appended rows join a BruteKnn tail scanned after the shards; a
  /// rescaled distance re-fits each shard in place. When the tail outgrows
  /// tail_rebuild_threshold() the whole index re-shards — at a point that
  /// is a pure function of the row counts and config, so rebuilds happen at
  /// the same step for every thread count.
  bool try_append(const Dataset& data, const MixedDistance& distance) override;
  /// Same-rows refit: re-fit every shard (and the tail) under `distance`.
  bool try_refit(const Dataset& data, const MixedDistance& distance) override;

  /// Number of shards over the base (pre-append) row set; test hook.
  std::size_t shard_count() const { return shards_.size(); }
  /// Appended rows currently served by the tail index; test hook.
  std::size_t tail_rows() const { return total_rows_ - base_rows_; }

  /// The shard-count policy: config.shards >= 2 forces that count
  /// (clamped to n); otherwise one shard per ~shard_target_rows rows,
  /// minimum 2. A pure function of (n, config) — never the thread count.
  static std::size_t plan_shards(std::size_t n, const KnnIndexConfig& config);

 private:
  struct Shard {
    std::size_t begin = 0;  // first covered row-set position
    std::unique_ptr<KnnIndex> index;
  };

  /// (Re)build the shards over the current row set; resets the tail.
  void build(const Dataset& data);
  /// Rebuild the tail index over rows [base_rows_, total_rows_).
  void rebuild_tail(const Dataset& data);
  std::size_t tail_rebuild_threshold() const;

  std::vector<std::size_t> row_ids_;  // empty = identity mapping
  MixedDistance distance_;            // current fit, for rebuilds
  KnnIndexConfig config_;
  std::vector<Shard> shards_;
  std::unique_ptr<KnnIndex> tail_;  // appended rows; null when none
  std::size_t base_rows_ = 0;       // rows covered by shards_
  std::size_t total_rows_ = 0;      // base + tail
  bool covers_prefix_ = false;      // identity over a dataset prefix
};

}  // namespace frote
