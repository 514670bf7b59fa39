// k-nearest-neighbour search over a fixed set of rows with the SMOTE-NC
// mixed distance. Two engines with identical results:
//  - BruteKnn: an exact scan grouped by categorical signature — one
//    mismatch count per group, levels visited by ascending mismatches, and
//    a running k-th-distance bound that skips whole levels and drops rows
//    before their penalty adds;
//  - ShardedKnnIndex (knn/sharded.hpp): contiguous shards of the row set,
//    each backed by a BruteKnn, with a deterministic merged top-k.
// Both compare squared distances internally and break distance ties by row
// index, so they agree exactly. The virtual surface is query_squared() —
// the k best by *squared* distance — and the public query() applies the
// square root once on top; composing engines (ShardedKnnIndex's merge) work
// on the squared values so no intermediate rounding can reorder a tie.
// make_knn_index() builds one BruteKnn, and past the sharding threshold
// partitions the row set so builds and queries fan out on
// util/parallel.hpp.
//
// Appendable indexes (docs/DESIGN.md §5): an index built over *all* rows of
// a dataset can absorb appended rows via try_append() instead of being
// rebuilt from scratch. BruteKnn files only the new rows into signature
// groups (opening new groups as needed; existing groups and dictionaries are
// kept), then lays the groups out again and repacks its numeric blocks in
// one O(n·d) pass. Subset indexes (the sharded engine's building blocks)
// support try_refit() instead: same rows, re-fitted under a rescaled
// distance.
// Query results after any append/refit sequence are bit-identical to a
// fresh build over the same rows and distance.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "frote/data/dataset.hpp"
#include "frote/knn/distance.hpp"

namespace frote {

struct Neighbor {
  std::size_t index = 0;  // index into the indexed row set
  double distance = 0.0;
};

namespace detail {
/// Contiguous pre-scaled row storage — the reference layout and summation
/// order of the squared distance, used by SessionWorkspace's neighbourhood
/// certificates: numeric columns first (pre-multiplied by 1/σ so the
/// numeric term is a plain squared difference), then raw categorical codes
/// (each mismatch adds a constant squared penalty).
class PackedRows {
 public:
  PackedRows(const Dataset& data, const MixedDistance& distance,
             const std::vector<std::size_t>& row_ids);

  std::size_t dim() const { return dim_; }
  std::size_t rows() const { return dim_ == 0 ? 0 : data_.size() / dim_; }
  const double* row(std::size_t pos) const { return data_.data() + pos * dim_; }
  void pack_query(std::span<const double> raw, std::vector<double>& out) const;
  /// Append the dataset rows at `row_ids` to the packed storage. The scales
  /// fitted at construction keep applying — callers must check
  /// scales_match() first (append under a rescaled distance needs repack()).
  void append(const Dataset& data, std::span<const std::size_t> row_ids);
  /// Re-pack every row from `data` under a (possibly rescaled) `distance`;
  /// storage position p re-packs dataset row `row_ids[p]`. One O(n·d) pass.
  void repack(const Dataset& data, const MixedDistance& distance,
              const std::vector<std::size_t>& row_ids);
  /// True when `distance` scales every column exactly as this packing did.
  bool scales_match(const MixedDistance& distance) const;
  double squared(const double* a, const double* b) const;

 private:
  void init_layout(const MixedDistance& distance);
  void pack_row(std::span<const double> raw, double* out) const;

  std::vector<double> data_;  // row-major, n x dim_
  std::size_t dim_ = 0;
  std::size_t numeric_count_ = 0;
  double penalty_sq_ = 1.0;
  std::vector<std::size_t> slot_of_;  // feature -> packed slot
  std::vector<double> scale_;         // feature -> 1/σ (1 for categorical)
};

/// Total order every engine ranks by: distance, then row index — the
/// deterministic tie-break that makes single and sharded indexes agree.
/// Works identically on squared distances (sqrt is monotone).
struct NeighborCmp {
  bool operator()(const Neighbor& a, const Neighbor& b) const {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.index < b.index;  // deterministic tie-break
  }
};

/// Keep a bounded max-heap of the k best neighbours (worst on top).
inline void heap_offer(std::vector<Neighbor>& heap, std::size_t k,
                       Neighbor cand) {
  if (heap.size() < k) {
    heap.push_back(cand);
    std::push_heap(heap.begin(), heap.end(), NeighborCmp{});
  } else if (NeighborCmp{}(cand, heap.front())) {
    std::pop_heap(heap.begin(), heap.end(), NeighborCmp{});
    heap.back() = cand;
    std::push_heap(heap.begin(), heap.end(), NeighborCmp{});
  }
}

/// Heap -> ascending (distance, index) order; distances stay squared.
inline std::vector<Neighbor> heap_sorted(std::vector<Neighbor> heap) {
  std::sort_heap(heap.begin(), heap.end(), NeighborCmp{});
  return heap;
}
}  // namespace detail

/// Common interface for kNN engines.
class KnnIndex {
 public:
  virtual ~KnnIndex() = default;
  /// The k nearest indexed rows to `query`, ascending by distance. Ties are
  /// broken by row index so every engine agrees exactly. Implemented on
  /// query_squared(): the square root is applied exactly once per reported
  /// neighbour, after all merging, so composed engines cannot re-round.
  std::vector<Neighbor> query(std::span<const double> query,
                              std::size_t k) const {
    std::vector<Neighbor> out;
    query_squared(query, k, out);
    for (auto& neighbor : out) {
      neighbor.distance = std::sqrt(neighbor.distance);
    }
    return out;
  }
  /// The k nearest indexed rows with *squared* distances, ascending by
  /// (squared distance, index). The composition primitive: a merge of
  /// per-shard results under this order is bit-identical to a single
  /// index over the union.
  virtual void query_squared(std::span<const double> query, std::size_t k,
                             std::vector<Neighbor>& out) const = 0;
  virtual std::size_t size() const = 0;
  /// Row-set index -> original dataset row index.
  virtual std::size_t dataset_index(std::size_t i) const = 0;
  /// Absorb the rows of `data` beyond size() into the index, refit under
  /// `distance` (which may have new scales). Only supported by indexes that
  /// cover a full-dataset prefix [0, size()); returns false when the caller
  /// should rebuild instead. After a successful append, queries are
  /// bit-identical to a fresh build over data with `distance`.
  virtual bool try_append(const Dataset& data, const MixedDistance& distance) {
    (void)data;
    (void)distance;
    return false;
  }
  /// Re-fit the index in place under `distance` over the *same* indexed
  /// rows of `data` (which may have been rescaled by a refit). Unlike
  /// try_append this works for subset indexes — it is how a sharded index
  /// refreshes its shards without rebuilding them. Returns false when the
  /// engine cannot refit in place.
  virtual bool try_refit(const Dataset& data, const MixedDistance& distance) {
    (void)data;
    (void)distance;
    return false;
  }
};

/// Exact scan grouped by categorical signature: the library's single-index
/// engine.
///
/// Rows are stored grouped by their tuple of categorical codes (the
/// signature). Each group is one contiguous block whose numeric columns are
/// laid out column by column, pre-scaled exactly as PackedRows packs them,
/// and every stored row keeps its row-set index. A query counts its
/// mismatches `m` against each group's signature once, then visits groups by
/// ascending `m`. The squared distance of a row at level `m` is its numeric
/// sum followed by `m` penalty adds — PackedRows::squared's order — so it is
/// never below the level floor (0.0 plus `m` penalty adds): IEEE addition of
/// non-negative terms is monotone. The scan therefore stops at the first
/// level whose floor is greater than the current k-th squared distance, and
/// drops a row whose numeric sum alone is greater than it, before any
/// penalty add. Only a strict `>` prunes, so ties always reach the (squared
/// distance, row index) order, and the k-best set under that total order
/// does not depend on the visit order: results are bit-identical to a flat
/// scan.
class BruteKnn : public KnnIndex {
 public:
  /// Index the rows of `data` at `indices` (or all rows when empty).
  BruteKnn(const Dataset& data, MixedDistance distance,
           std::vector<std::size_t> indices = {});

  void query_squared(std::span<const double> query, std::size_t k,
                     std::vector<Neighbor>& out) const override;
  std::size_t size() const override { return row_ids_.size(); }
  std::size_t dataset_index(std::size_t i) const override {
    return row_ids_[i];
  }
  /// Appended rows join their signature groups (or open new ones); the
  /// existing groups and dictionaries are kept, and the groups are laid out
  /// again with every numeric block repacked under `distance`.
  bool try_append(const Dataset& data, const MixedDistance& distance) override;
  /// Same rows, same groups; the numeric blocks are repacked only when
  /// `distance` rescaled a column.
  bool try_refit(const Dataset& data, const MixedDistance& distance) override;

  /// Distinct categorical signatures among the indexed rows; test hook.
  std::size_t group_count() const { return groups_; }

 private:
  /// File the row-set rows [from, size()) into signature groups, opening a
  /// group for each new signature, then lay the groups out as contiguous
  /// runs of positions with rows ascending by row-set index.
  void add_rows(const Dataset& data, std::size_t from);
  /// Adopt `distance` and fill every group's numeric block under it.
  void pack(const Dataset& data, const MixedDistance& distance);

  std::vector<std::size_t> row_ids_;       // row-set index -> dataset row
  bool covers_prefix_ = false;             // row_ids_ == [0, size())
  MixedDistance distance_;                 // the fit numeric_ is packed under
  std::vector<std::size_t> numeric_cols_;  // numeric features, slot order
  std::vector<std::size_t> cat_cols_;      // categorical features
  /// Per categorical column, code key -> lane, lanes numbered in the order
  /// the codes were first seen.
  std::vector<std::unordered_map<std::uint64_t, std::uint32_t>> dictionaries_;
  std::size_t groups_ = 0;
  std::vector<std::uint32_t> row_group_;    // row-set index -> group
  std::vector<std::uint32_t> group_lanes_;  // group g's lanes at g·codes
  /// The same lanes column by column (lane j of group g at j·groups_ + g),
  /// so a query's per-group mismatch counts accumulate a column at a time,
  /// many groups per vector instruction.
  std::vector<std::uint32_t> signatures_;
  std::vector<std::size_t> group_start_;   // group g: positions [s[g], s[g+1])
  std::vector<std::size_t> position_row_;  // position -> row-set index
  /// Group g's block starts at s[g]·numeric slots; row i of an r-row group
  /// holds slot c at c·r + i within it.
  std::vector<double> numeric_;
};

/// Engine-selection knobs for make_knn_index.
struct KnnIndexConfig {
  int threads = 0;  // shard build/query fan-out; 0 ⇒ FROTE_NUM_THREADS
  /// Row sets at or above this size are sharded (ShardedKnnIndex): the set
  /// splits into contiguous ranges of ~shard_target_rows rows, each backed
  /// by its own BruteKnn, built and queried on util/parallel.hpp.
  /// The policy is a pure function of (n, config) — never the thread
  /// count — so engine choice is stable across FROTE_NUM_THREADS.
  std::size_t shard_min_rows = 32768;
  std::size_t shard_target_rows = 16384;
  /// Explicit shard count: 0 = auto (the policy above), 1 = never shard,
  /// >= 2 = force exactly this many shards.
  std::size_t shards = 0;
};

/// The library's default index: one BruteKnn, or a ShardedKnnIndex of
/// them past shard_min_rows. Both return identical neighbours.
std::unique_ptr<KnnIndex> make_knn_index(const Dataset& data,
                                         MixedDistance distance,
                                         std::vector<std::size_t> indices = {},
                                         const KnnIndexConfig& config = {});

/// make_knn_index without the sharding tier — the per-shard building block.
std::unique_ptr<KnnIndex> make_single_knn_index(
    const Dataset& data, MixedDistance distance,
    std::vector<std::size_t> indices = {});

}  // namespace frote
