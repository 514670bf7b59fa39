#include "frote/knn/knn.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <unordered_map>

namespace frote {

namespace {

std::vector<std::size_t> all_indices(const Dataset& data) {
  std::vector<std::size_t> idx(data.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  return idx;
}

bool is_identity(const std::vector<std::size_t>& ids) {
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] != i) return false;
  }
  return true;
}

}  // namespace

namespace detail {

// PackedRows: the reference row format. Columns are permuted so the numeric
// features come first — pre-multiplied by 1/σ, so the numeric term is a
// plain squared difference — followed by the raw categorical codes, whose
// mismatches add a constant squared penalty. BruteKnn packs its numeric
// blocks with the same products and sums in the same order, so the two
// agree on every distance bit.

void PackedRows::init_layout(const MixedDistance& distance) {
  dim_ = distance.num_columns();
  penalty_sq_ = distance.categorical_penalty() * distance.categorical_penalty();
  slot_of_.resize(dim_);
  scale_.assign(dim_, 1.0);
  std::size_t slot = 0;
  for (std::size_t f = 0; f < dim_; ++f) {
    if (!distance.column_categorical(f)) {
      slot_of_[f] = slot++;
      scale_[f] = distance.column_inv_std(f);
    }
  }
  numeric_count_ = slot;
  for (std::size_t f = 0; f < dim_; ++f) {
    if (distance.column_categorical(f)) slot_of_[f] = slot++;
  }
}

PackedRows::PackedRows(const Dataset& data, const MixedDistance& distance,
                       const std::vector<std::size_t>& row_ids) {
  init_layout(distance);
  data_.resize(row_ids.size() * dim_);
  for (std::size_t i = 0; i < row_ids.size(); ++i) {
    pack_row(data.row(row_ids[i]), data_.data() + i * dim_);
  }
}

void PackedRows::pack_row(std::span<const double> raw, double* out) const {
  for (std::size_t f = 0; f < dim_; ++f) {
    out[slot_of_[f]] = raw[f] * scale_[f];
  }
}

void PackedRows::pack_query(std::span<const double> raw,
                            std::vector<double>& out) const {
  out.resize(dim_);
  pack_row(raw, out.data());
}

void PackedRows::append(const Dataset& data,
                        std::span<const std::size_t> row_ids) {
  const std::size_t old = data_.size();
  data_.resize(old + row_ids.size() * dim_);
  for (std::size_t i = 0; i < row_ids.size(); ++i) {
    pack_row(data.row(row_ids[i]), data_.data() + old + i * dim_);
  }
}

void PackedRows::repack(const Dataset& data, const MixedDistance& distance,
                        const std::vector<std::size_t>& row_ids) {
  init_layout(distance);
  data_.resize(row_ids.size() * dim_);
  for (std::size_t i = 0; i < row_ids.size(); ++i) {
    pack_row(data.row(row_ids[i]), data_.data() + i * dim_);
  }
}

bool PackedRows::scales_match(const MixedDistance& distance) const {
  if (distance.num_columns() != dim_) return false;
  const double penalty_sq =
      distance.categorical_penalty() * distance.categorical_penalty();
  if (penalty_sq != penalty_sq_) return false;
  std::size_t slot = 0;
  for (std::size_t f = 0; f < dim_; ++f) {
    if (distance.column_categorical(f)) continue;
    // Numeric columns must occupy the same slots with the same 1/σ.
    if (slot_of_[f] != slot || scale_[f] != distance.column_inv_std(f)) {
      return false;
    }
    ++slot;
  }
  return slot == numeric_count_;
}

double PackedRows::squared(const double* a, const double* b) const {
  double acc = 0.0;
  std::size_t f = 0;
  for (; f < numeric_count_; ++f) {
    const double diff = a[f] - b[f];
    acc += diff * diff;
  }
  // Count mismatches with an integer accumulator (no data-dependent branch,
  // no FP dependency chain — real categorical codes mispredict a per-column
  // branch badly), then replay exactly the per-mismatch adds the per-column
  // loop would have performed: the same penalty added the same number of
  // times in the same sequence yields the same bits.
  int mismatches = 0;
  for (; f < dim_; ++f) {
    mismatches += a[f] != b[f] ? 1 : 0;
  }
  for (int m = 0; m < mismatches; ++m) acc += penalty_sq_;
  return acc;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// BruteKnn

namespace {

/// Keep a bounded max-heap of the k best neighbours (worst on top).
void heap_offer(std::vector<Neighbor>& heap, std::size_t k, Neighbor cand) {
  const detail::NeighborCmp less;
  if (heap.size() < k) {
    heap.push_back(cand);
    std::push_heap(heap.begin(), heap.end(), less);
  } else if (less(cand, heap.front())) {
    std::pop_heap(heap.begin(), heap.end(), less);
    heap.back() = cand;
    std::push_heap(heap.begin(), heap.end(), less);
  }
}

/// A categorical code as a dictionary key: its bits, with -0.0 joined to
/// 0.0, so two stored codes share a key exactly when they compare equal
/// (Schema::validate_row admits only finite codes). A NaN query code keys
/// to no stored code, and NaN matches nothing.
std::uint64_t code_key(double code) {
  if (code == 0.0) code = 0.0;
  std::uint64_t bits = 0;
  std::memcpy(&bits, &code, sizeof bits);
  return bits;
}

/// Rows per numeric tile: a tile's sums accumulate one column at a time
/// across its rows, which the compiler vectorises.
constexpr std::size_t kTile = 8;

/// Per-thread query scratch; query_squared is const and runs concurrently.
struct QueryScratch {
  std::vector<double> numeric;           // packed query numeric slots
  std::vector<std::uint32_t> lanes;      // query codes as dictionary lanes
  std::vector<std::uint32_t> mismatches;  // per group
  std::vector<std::size_t> level_start;  // groups at level m: [m], [m+1]
  std::vector<std::size_t> level_next;   // counting-sort cursors
  std::vector<std::size_t> by_level;     // group ids, ascending mismatches
};

/// Count each group's mismatches against the query lanes, one signature
/// column at a time, then counting-sort the groups into level order.
void sort_by_level(const std::vector<std::uint32_t>& signatures,
                   std::size_t groups, QueryScratch& s) {
  const std::size_t codes = s.lanes.size();
  s.mismatches.assign(groups, 0);
  // Through plain pointers, so the compiler can vectorise the inner loop.
  std::uint32_t* const mismatches = s.mismatches.data();
  for (std::size_t j = 0; j < codes; ++j) {
    const std::uint32_t lane = s.lanes[j];
    const std::uint32_t* const column = signatures.data() + j * groups;
    for (std::size_t g = 0; g < groups; ++g) {
      mismatches[g] += column[g] != lane ? 1 : 0;
    }
  }
  s.level_start.assign(codes + 2, 0);
  for (std::size_t g = 0; g < groups; ++g) ++s.level_start[mismatches[g] + 1];
  for (std::size_t m = 0; m <= codes; ++m) {
    s.level_start[m + 1] += s.level_start[m];
  }
  s.level_next.assign(s.level_start.begin(), s.level_start.end() - 1);
  s.by_level.resize(groups);
  for (std::size_t g = 0; g < groups; ++g) {
    s.by_level[s.level_next[mismatches[g]]++] = g;
  }
}

}  // namespace

BruteKnn::BruteKnn(const Dataset& data, MixedDistance distance,
                   std::vector<std::size_t> indices)
    : row_ids_(indices.empty() ? all_indices(data) : std::move(indices)),
      covers_prefix_(is_identity(row_ids_)) {
  for (std::size_t f = 0; f < distance.num_columns(); ++f) {
    (distance.column_categorical(f) ? cat_cols_ : numeric_cols_).push_back(f);
  }
  dictionaries_.resize(cat_cols_.size());
  add_rows(data, 0);
  pack(data, distance);
}

void BruteKnn::add_rows(const Dataset& data, std::size_t from) {
  const std::size_t codes = cat_cols_.size();
  // Signature hash -> group, rebuilt per call: a lookup aid only.
  const auto hash_of = [](const std::uint32_t* lanes, std::size_t count) {
    std::uint64_t hash = 14695981039346656037ull;  // FNV-1a over the lanes
    for (std::size_t j = 0; j < count; ++j) {
      hash = (hash ^ lanes[j]) * 1099511628211ull;
    }
    return hash;
  };
  std::unordered_multimap<std::uint64_t, std::uint32_t> group_of;
  group_of.reserve(groups_ + (row_ids_.size() - from));
  for (std::size_t g = 0; g < groups_; ++g) {
    group_of.emplace(hash_of(group_lanes_.data() + g * codes, codes),
                     static_cast<std::uint32_t>(g));
  }
  // A code's lane is its dictionary entry, so two codes share a lane exactly
  // when they compare equal and two rows share a group exactly when every
  // categorical code does.
  std::vector<std::uint32_t> lanes(codes);
  for (std::size_t i = from; i < row_ids_.size(); ++i) {
    const auto row = data.row(row_ids_[i]);
    for (std::size_t j = 0; j < codes; ++j) {
      auto& dictionary = dictionaries_[j];
      lanes[j] = dictionary
                     .try_emplace(code_key(row[cat_cols_[j]]),
                                  static_cast<std::uint32_t>(dictionary.size()))
                     .first->second;
    }
    const std::uint64_t hash = hash_of(lanes.data(), codes);
    auto group = static_cast<std::uint32_t>(groups_);
    for (auto [at, end] = group_of.equal_range(hash); at != end; ++at) {
      if (std::equal(lanes.begin(), lanes.end(),
                     group_lanes_.begin() + at->second * codes)) {
        group = at->second;
        break;
      }
    }
    if (group == groups_) {
      group_of.emplace(hash, group);
      group_lanes_.insert(group_lanes_.end(), lanes.begin(), lanes.end());
      ++groups_;
    }
    row_group_.push_back(group);
  }

  // Lay the groups out by a stable counting sort, so each group's rows stay
  // ascending by row-set index, and transpose the lanes column by column.
  const std::size_t n = row_ids_.size();
  group_start_.assign(groups_ + 1, 0);
  for (const std::uint32_t g : row_group_) ++group_start_[g + 1];
  for (std::size_t g = 0; g < groups_; ++g) {
    group_start_[g + 1] += group_start_[g];
  }
  std::vector<std::size_t> next(group_start_.begin(), group_start_.end() - 1);
  position_row_.resize(n);
  for (std::size_t i = 0; i < n; ++i) position_row_[next[row_group_[i]]++] = i;
  signatures_.resize(groups_ * codes);
  for (std::size_t g = 0; g < groups_; ++g) {
    for (std::size_t j = 0; j < codes; ++j) {
      signatures_[j * groups_ + g] = group_lanes_[g * codes + j];
    }
  }
}

void BruteKnn::pack(const Dataset& data, const MixedDistance& distance) {
  distance_ = distance;
  // Same products as PackedRows::pack_row, so every distance bit agrees.
  const std::size_t slots = numeric_cols_.size();
  numeric_.resize(row_ids_.size() * slots);
  for (std::size_t g = 0; g < group_count(); ++g) {
    const std::size_t begin = group_start_[g];
    const std::size_t rows = group_start_[g + 1] - begin;
    double* block = numeric_.data() + begin * slots;
    for (std::size_t i = 0; i < rows; ++i) {
      const auto row = data.row(row_ids_[position_row_[begin + i]]);
      for (std::size_t c = 0; c < slots; ++c) {
        const std::size_t f = numeric_cols_[c];
        block[c * rows + i] = row[f] * distance_.column_inv_std(f);
      }
    }
  }
}

void BruteKnn::query_squared(std::span<const double> query, std::size_t k,
                             std::vector<Neighbor>& out) const {
  out.clear();
  if (k == 0 || row_ids_.empty()) return;
  static thread_local QueryScratch scratch;
  QueryScratch& s = scratch;
  const std::size_t slots = numeric_cols_.size();
  const std::size_t codes = cat_cols_.size();
  const double penalty_sq =
      distance_.categorical_penalty() * distance_.categorical_penalty();
  s.numeric.resize(slots);
  for (std::size_t c = 0; c < slots; ++c) {
    const std::size_t f = numeric_cols_[c];
    s.numeric[c] = query[f] * distance_.column_inv_std(f);
  }
  // A query code outside a column's dictionary takes the absent lane, which
  // no group holds.
  s.lanes.resize(codes);
  for (std::size_t j = 0; j < codes; ++j) {
    const auto& dictionary = dictionaries_[j];
    const auto at = dictionary.find(code_key(query[cat_cols_[j]]));
    s.lanes[j] = at != dictionary.end()
                     ? at->second
                     : static_cast<std::uint32_t>(dictionary.size());
  }
  sort_by_level(signatures_, groups_, s);

  // Visit levels in ascending order. A row's squared distance follows
  // PackedRows::squared: numeric slots in order, then m penalty adds. The
  // adds can only grow it, so a numeric sum above the bound is dropped; a
  // level whose floor (0.0 plus m penalty adds) is above it ends the scan.
  std::vector<Neighbor>& heap = out;
  heap.reserve(k + 1);
  double bound = std::numeric_limits<double>::infinity();
  const double* q = s.numeric.data();
  const auto offer = [&](double acc, std::size_t m, std::size_t pos) {
    if (acc > bound) return;
    for (std::size_t t = 0; t < m; ++t) acc += penalty_sq;
    heap_offer(heap, k, {position_row_[pos], acc});
    if (heap.size() == k) bound = heap.front().distance;
  };
  double floor = 0.0;
  for (std::size_t m = 0; m <= codes; ++m, floor += penalty_sq) {
    for (std::size_t at = s.level_start[m]; at < s.level_start[m + 1]; ++at) {
      if (floor > bound) break;
      const std::size_t g = s.by_level[at];
      const std::size_t begin = group_start_[g];
      const std::size_t rows = group_start_[g + 1] - begin;
      const double* block = numeric_.data() + begin * slots;
      std::size_t i = 0;
      for (; i + kTile <= rows; i += kTile) {
        double acc[kTile] = {};
        for (std::size_t c = 0; c < slots; ++c) {
          const double* column = block + c * rows + i;
          for (std::size_t t = 0; t < kTile; ++t) {
            const double diff = column[t] - q[c];
            acc[t] += diff * diff;
          }
        }
        for (std::size_t t = 0; t < kTile; ++t) offer(acc[t], m, begin + i + t);
      }
      for (; i < rows; ++i) {
        double acc = 0.0;
        for (std::size_t c = 0; c < slots; ++c) {
          const double diff = block[c * rows + i] - q[c];
          acc += diff * diff;
        }
        offer(acc, m, begin + i);
      }
    }
    if (floor > bound) break;
  }
  std::sort_heap(heap.begin(), heap.end(), detail::NeighborCmp{});
}

bool BruteKnn::try_append(const Dataset& data, const MixedDistance& distance) {
  if (!covers_prefix_ || data.size() < row_ids_.size()) return false;
  const std::size_t from = row_ids_.size();
  for (std::size_t i = from; i < data.size(); ++i) row_ids_.push_back(i);
  add_rows(data, from);
  pack(data, distance);
  return true;
}

// ---------------------------------------------------------------------------
// Factory

std::unique_ptr<KnnIndex> make_knn_index(const Dataset& data,
                                         MixedDistance distance,
                                         std::vector<std::size_t> indices,
                                         const KnnIndexConfig& config) {
  (void)config;
  return std::make_unique<BruteKnn>(data, std::move(distance),
                                    std::move(indices));
}

}  // namespace frote
