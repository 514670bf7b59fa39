// Shared split-search sorting kernel: a stable LSD byte-radix sort over
// monotone-mapped double keys with a small fixed payload, skipping passes
// whose byte is constant across the input (exponents of a narrow value
// range). Two callers, two cadences:
//
//   - The decision-tree builder sorts per node: each node radix-sorts its
//     own rows of every candidate feature (RF draws features per node).
//   - GBDT sorts once per boost: the tree grower radix-sorts each numeric
//     column over all rows once, and every tree of every round reuses that
//     order, stable-partitioning it down the tree (ml/gbdt.cpp).
//
// Stability is load-bearing: callers feed pairs in ascending row order, so
// ties land in ascending row order, and any order-sensitive accumulation
// downstream (GBDT's gradient prefix sums) replays the same float-add
// sequence as a std::sort over (value, row) pairs — trees stay
// bit-identical.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

namespace frote::detail {

/// Monotone map from a finite double to an unsigned key: a < b (as
/// doubles) ⇔ map(a) < map(b). The standard IEEE-754 flip: negative values
/// invert entirely, non-negative values flip the sign bit. Note -0.0 and
/// +0.0 map to *different* keys although they compare equal as doubles;
/// callers for whom that tie split matters must canonicalise first.
inline std::uint64_t split_value_key(double v) {
  std::uint64_t u;
  std::memcpy(&u, &v, sizeof u);
  return u ^ (u >> 63 != 0 ? ~std::uint64_t{0} : std::uint64_t{1} << 63);
}

inline double split_key_value(std::uint64_t key) {
  const std::uint64_t msb = std::uint64_t{1} << 63;
  const std::uint64_t u = (key & msb) != 0 ? key ^ msb : ~key;
  double v;
  std::memcpy(&v, &u, sizeof v);
  return v;
}

/// Stable LSD byte-radix over the m (key, payload) pairs already loaded
/// into keys[0] / payloads[0]; `hist` must hold the 8 × 256 per-byte counts
/// of keys[0] (the caller accumulates it while loading, saving a pass).
/// Both double-buffers are required to be size m. Returns the buffer index
/// (0 or 1) holding the sorted result. Passes whose byte is constant
/// across the range permute nothing and are skipped outright.
template <typename Payload>
int radix_sort_pairs(std::vector<std::uint64_t> (&keys)[2],
                     std::vector<Payload> (&payloads)[2],
                     const std::vector<std::uint32_t>& hist) {
  const std::size_t m = keys[0].size();
  int cur = 0;
  for (std::size_t b = 0; b < 8; ++b) {
    const std::uint32_t* h = hist.data() + b * 256;
    if (m > 0 && h[(keys[cur][0] >> (8 * b)) & 0xFF] == m) continue;
    std::uint32_t offsets[256];
    std::uint32_t sum = 0;
    for (std::size_t d = 0; d < 256; ++d) {
      offsets[d] = sum;
      sum += h[d];
    }
    const int alt = cur ^ 1;
    for (std::size_t i = 0; i < m; ++i) {
      const std::uint64_t key = keys[cur][i];
      const std::uint32_t pos = offsets[(key >> (8 * b)) & 0xFF]++;
      keys[alt][pos] = key;
      payloads[alt][pos] = payloads[cur][i];
    }
    cur = alt;
  }
  return cur;
}

}  // namespace frote::detail
