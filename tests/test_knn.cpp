#include "frote/knn/knn.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "test_util.hpp"

namespace frote {
namespace {

TEST(MixedDistance, ZeroForIdenticalRows) {
  auto data = testing::threshold_dataset(50);
  const auto d = MixedDistance::fit(data);
  EXPECT_DOUBLE_EQ(d(data.row(3), data.row(3)), 0.0);
}

TEST(MixedDistance, SymmetricAndNonNegative) {
  auto data = testing::threshold_dataset(50);
  const auto d = MixedDistance::fit(data);
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t j = 0; j < 10; ++j) {
      const double dij = d(data.row(i), data.row(j));
      EXPECT_GE(dij, 0.0);
      EXPECT_DOUBLE_EQ(dij, d(data.row(j), data.row(i)));
    }
  }
}

TEST(MixedDistance, TriangleInequalityHolds) {
  auto data = testing::threshold_dataset(30);
  const auto d = MixedDistance::fit(data);
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t j = 0; j < 10; ++j) {
      for (std::size_t k = 0; k < 10; ++k) {
        EXPECT_LE(d(data.row(i), data.row(k)),
                  d(data.row(i), data.row(j)) + d(data.row(j), data.row(k)) +
                      1e-9);
      }
    }
  }
}

TEST(MixedDistance, CategoricalMismatchAddsPenalty) {
  auto data = testing::threshold_dataset(50);
  const auto d = MixedDistance::fit(data);
  std::vector<double> a = {5.0, 5.0, 0.0};
  std::vector<double> b = {5.0, 5.0, 1.0};
  EXPECT_DOUBLE_EQ(d(a, b), d.categorical_penalty());
}

TEST(BruteKnn, FindsSelfFirst) {
  auto data = testing::threshold_dataset(60);
  const BruteKnn knn(data, MixedDistance::fit(data));
  const auto nb = knn.query(data.row(17), 1);
  ASSERT_EQ(nb.size(), 1u);
  EXPECT_EQ(knn.dataset_index(nb[0].index), 17u);
  EXPECT_DOUBLE_EQ(nb[0].distance, 0.0);
}

TEST(BruteKnn, ResultsSortedByDistance) {
  auto data = testing::threshold_dataset(60);
  const BruteKnn knn(data, MixedDistance::fit(data));
  const auto nb = knn.query(data.row(0), 10);
  for (std::size_t i = 1; i < nb.size(); ++i) {
    EXPECT_LE(nb[i - 1].distance, nb[i].distance);
  }
}

TEST(BruteKnn, SubsetIndexingMapsBack) {
  auto data = testing::threshold_dataset(60);
  std::vector<std::size_t> subset = {5, 10, 15, 20, 25};
  const BruteKnn knn(data, MixedDistance::fit(data), subset);
  EXPECT_EQ(knn.size(), 5u);
  const auto nb = knn.query(data.row(10), 1);
  EXPECT_EQ(knn.dataset_index(nb[0].index), 10u);
}

TEST(BruteKnn, KLargerThanSetReturnsAll) {
  auto data = testing::threshold_dataset(5);
  const BruteKnn knn(data, MixedDistance::fit(data));
  EXPECT_EQ(knn.query(data.row(0), 50).size(), 5u);
}

// ---------------------------------------------------------------------------
// Differential oracle: every engine against a naive reference — the packed
// squared distance to every indexed row, fully sorted by (squared distance,
// row index). Agreement is bitwise: same positions, same distance bits.

/// The naive reference over the rows at `ids` (all rows when empty).
std::vector<Neighbor> reference_query(const Dataset& data,
                                      const MixedDistance& distance,
                                      std::vector<std::size_t> ids,
                                      std::span<const double> query,
                                      std::size_t k) {
  if (ids.empty()) {
    for (std::size_t i = 0; i < data.size(); ++i) ids.push_back(i);
  }
  const detail::PackedRows packed(data, distance, ids);
  std::vector<double> q;
  packed.pack_query(query, q);
  std::vector<Neighbor> all;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    all.push_back({i, packed.squared(packed.row(i), q.data())});
  }
  std::sort(all.begin(), all.end(), detail::NeighborCmp{});
  all.resize(std::min(k, all.size()));
  return all;
}

void expect_matches_reference(const KnnIndex& index, const Dataset& data,
                              const MixedDistance& distance,
                              const std::vector<std::size_t>& ids,
                              const std::vector<std::vector<double>>& queries,
                              std::size_t k, const std::string& what) {
  std::vector<Neighbor> actual;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto expected = reference_query(data, distance, ids, queries[q], k);
    index.query_squared(queries[q], k, actual);
    ASSERT_EQ(actual.size(), expected.size()) << what << " query " << q;
    for (std::size_t r = 0; r < expected.size(); ++r) {
      ASSERT_EQ(actual[r].index, expected[r].index)
          << what << " query " << q << " rank " << r;
      ASSERT_EQ(actual[r].distance, expected[r].distance)
          << what << " query " << q << " rank " << r << " distance bits";
    }
  }
}

/// A seeded random mixed schema. Shapes cycle through all-numeric,
/// all-categorical and more than 8 categorical columns; odd seeds add a
/// wide column of 1000 categories (codes >= 256, and past 255 distinct
/// codes once n is large enough). Numerics draw from a coarse grid and
/// every fifth row copies an earlier one, so distance ties are common.
Dataset random_mixed_dataset(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::size_t numeric = rng.index(4);
  std::size_t categorical = rng.index(5);
  switch (seed % 4) {
    case 0: numeric = 1 + rng.index(4); categorical = 0; break;
    case 1: numeric = 0; categorical = 1 + rng.index(6); break;
    case 2: categorical = 9 + rng.index(4); break;
    default: break;
  }
  if (numeric + categorical == 0) numeric = 1;
  std::vector<FeatureSpec> features;
  std::vector<std::size_t> cardinality;
  for (std::size_t f = 0; f < numeric; ++f) {
    features.push_back(FeatureSpec::numeric("x" + std::to_string(f)));
    cardinality.push_back(0);
  }
  for (std::size_t f = 0; f < categorical; ++f) {
    const std::size_t wide = f == 0 && seed % 2 == 1 ? 1000 : 0;
    const std::size_t card = wide > 0 ? wide : 2 + rng.index(5);
    std::vector<std::string> names;
    for (std::size_t c = 0; c < card; ++c) names.push_back(std::to_string(c));
    features.push_back(
        FeatureSpec::categorical("c" + std::to_string(f), std::move(names)));
    cardinality.push_back(card);
  }
  Dataset data(std::make_shared<Schema>(std::move(features),
                                        std::vector<std::string>{"a", "b"}));
  std::vector<double> row(cardinality.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0 && i % 5 == 0) {
      const std::size_t copy = rng.index(i);
      data.add_row(data.row(copy), data.label(copy));
      continue;
    }
    for (std::size_t f = 0; f < row.size(); ++f) {
      row[f] = cardinality[f] == 0
                   ? static_cast<double>(rng.index(7)) * 0.5 - 1.0
                   : static_cast<double>(rng.index(cardinality[f]));
    }
    // -0.0 is a valid code and must group with 0.0.
    if (categorical > 0 && rng.index(9) == 0) row[numeric] = -0.0;
    data.add_row(row, static_cast<int>(rng.index(2)));
  }
  return data;
}

/// Dataset rows plus off-dataset probes: unseen, negative and non-integral
/// categorical codes, NaN codes (which mismatch everything) and -0.0.
std::vector<std::vector<double>> oracle_queries(const Dataset& data,
                                                std::uint64_t seed) {
  Rng rng(seed ^ 0x5eed);
  std::vector<std::vector<double>> queries;
  for (std::size_t q = 0; q < std::min<std::size_t>(data.size(), 12); ++q) {
    const auto row = data.row(rng.index(data.size()));
    queries.emplace_back(row.begin(), row.end());
  }
  const double odd_codes[] = {-1.0, 0.5, 256.0, 299.0, 1e9, -0.0,
                              std::numeric_limits<double>::quiet_NaN()};
  for (const double code : odd_codes) {
    const auto row = data.row(rng.index(data.size()));
    std::vector<double> probe(row.begin(), row.end());
    for (std::size_t f = 0; f < probe.size(); ++f) {
      if (data.schema().feature(f).is_categorical() && rng.index(2) == 0) {
        probe[f] = code;
      } else if (!data.schema().feature(f).is_categorical()) {
        probe[f] += 0.25;
      }
    }
    queries.push_back(std::move(probe));
  }
  return queries;
}

class KnnOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KnnOracle, EveryEngineMatchesNaiveReference) {
  const std::uint64_t seed = GetParam();
  const std::size_t n =
      seed % 4 == 3 ? 600 : 20 + static_cast<std::size_t>(seed * 37 % 180);
  const Dataset data = random_mixed_dataset(seed, n);
  const MixedDistance distance = MixedDistance::fit(data);
  const auto queries = oracle_queries(data, seed);
  for (const std::size_t k : {std::size_t{1}, std::size_t{7}, n, n + 5}) {
    const std::string at = "seed " + std::to_string(seed) + " k " +
                           std::to_string(k);
    expect_matches_reference(BruteKnn(data, distance), data, distance, {},
                             queries, k, "brute " + at);
    for (const int threads : {1, 4}) {
      for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
        KnnIndexConfig config;
        config.threads = threads;
        config.shards = shards;
        expect_matches_reference(
            *make_knn_index(data, distance, {}, config), data, distance, {},
            queries, k,
            "threads " + std::to_string(threads) + " shards " +
                std::to_string(shards) + " " + at);
      }
    }
  }
}

TEST_P(KnnOracle, SubsetIndexMatchesNaiveReference) {
  const std::uint64_t seed = GetParam();
  const Dataset data = random_mixed_dataset(seed, 150);
  const MixedDistance distance = MixedDistance::fit(data);
  Rng rng(seed + 99);
  std::vector<std::size_t> ids;  // unsorted, as a base population may be
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (rng.index(3) == 0) ids.push_back(i);
  }
  std::reverse(ids.begin(), ids.end());
  const auto queries = oracle_queries(data, seed);
  for (const std::size_t k : {std::size_t{5}, ids.size() + 1}) {
    const BruteKnn knn(data, distance, ids);
    expect_matches_reference(knn, data, distance, ids, queries, k, "subset");
    for (std::size_t r = 0; r < ids.size(); ++r) {
      ASSERT_EQ(knn.dataset_index(r), ids[r]);
    }
  }
}

TEST_P(KnnOracle, AppendAndRefitMatchNaiveReference) {
  const std::uint64_t seed = GetParam();
  const Dataset full = random_mixed_dataset(seed, 160);
  Dataset data(full.schema_ptr());
  for (std::size_t i = 0; i < 100; ++i) data.add_row(full.row(i), 0);
  const MixedDistance frozen = MixedDistance::fit(data);
  BruteKnn rescaled(data, frozen);
  BruteKnn same_scales(data, frozen);
  std::vector<std::size_t> subset;
  for (std::size_t i = 0; i < data.size(); i += 3) subset.push_back(i);
  BruteKnn refitted(data, frozen, subset);
  for (std::size_t from = 100; from < full.size(); from += 20) {
    for (std::size_t i = from; i < from + 20; ++i) data.add_row(full.row(i), 1);
    const MixedDistance refit = MixedDistance::fit(data);
    const auto queries = oracle_queries(data, seed + from);
    ASSERT_TRUE(rescaled.try_append(data, refit));
    expect_matches_reference(rescaled, data, refit, {}, queries, 9,
                             "append with rescale");
    EXPECT_EQ(rescaled.group_count(), BruteKnn(data, refit).group_count());
    ASSERT_TRUE(same_scales.try_append(data, frozen));
    expect_matches_reference(same_scales, data, frozen, {}, queries, 9,
                             "append without rescale");
    ASSERT_TRUE(refitted.try_refit(data, refit));
    expect_matches_reference(refitted, data, refit, subset, queries, 9,
                             "refit");
    EXPECT_FALSE(refitted.try_append(data, refit));  // subsets never append
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KnnOracle,
                         ::testing::Range<std::uint64_t>(1, 25));

TEST(BruteKnn, WideDictionariesMatchNaiveReference) {
  // Thousands of distinct codes in one column: every row is its own group
  // and all but one group sit at level 1, a wall of ties.
  const std::size_t n = 3000;
  std::vector<std::string> names(n);
  for (std::size_t c = 0; c < n; ++c) names[c] = std::to_string(c);
  Dataset data(std::make_shared<Schema>(
      std::vector<FeatureSpec>{FeatureSpec::categorical("id", names),
                               FeatureSpec::numeric("x")},
      std::vector<std::string>{"a", "b"}));
  for (std::size_t i = 0; i < n; ++i) {
    data.add_row({static_cast<double>(n - 1 - i), 0.0}, 0);
  }
  const MixedDistance distance = MixedDistance::fit(data);
  const BruteKnn knn(data, distance);
  EXPECT_EQ(knn.group_count(), n);
  const std::vector<std::vector<double>> queries = {
      {7.0, 0.0}, {2999.0, 0.0}, {3000.0, 0.0}, {0.5, 1.0}};
  expect_matches_reference(knn, data, distance, {}, queries, 3, "wide");
}

TEST(BruteKnn, GroupsRowsBySignature) {
  // threshold_dataset cycles three colours: three groups, whatever n is.
  const auto data = testing::threshold_dataset(90);
  EXPECT_EQ(BruteKnn(data, MixedDistance::fit(data)).group_count(), 3u);
  const auto numeric = testing::blobs_dataset(30);
  EXPECT_EQ(BruteKnn(numeric, MixedDistance::fit(numeric)).group_count(), 1u);
}

/// Property: the engine agrees exactly with the naive reference for a sweep
/// of dataset sizes and k values.
class BruteKnnAgreement
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(BruteKnnAgreement, MatchesNaiveReference) {
  const auto [n, k] = GetParam();
  auto data = testing::threshold_dataset(n, 5.0, /*seed=*/n * 31 + k);
  const auto distance = MixedDistance::fit(data);
  const BruteKnn knn(data, distance);
  std::vector<std::vector<double>> queries;
  for (std::size_t q = 0; q < std::min<std::size_t>(n, 25); ++q) {
    queries.emplace_back(data.row(q).begin(), data.row(q).end());
  }
  expect_matches_reference(knn, data, distance, {}, queries, k,
                           "n " + std::to_string(n));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BruteKnnAgreement,
    ::testing::Combine(::testing::Values<std::size_t>(3, 10, 50, 200, 500),
                       ::testing::Values<std::size_t>(1, 3, 5, 11)));

TEST(BruteKnn, EmptyQueryOnZeroK) {
  auto data = testing::threshold_dataset(20);
  const BruteKnn knn(data, MixedDistance::fit(data));
  EXPECT_TRUE(knn.query(data.row(0), 0).empty());
}

TEST(BruteKnn, SubsetIndexingEvenRows) {
  auto data = testing::threshold_dataset(60);
  std::vector<std::size_t> subset = {2, 4, 6, 8, 10, 12, 14};
  const BruteKnn knn(data, MixedDistance::fit(data), subset);
  EXPECT_EQ(knn.size(), 7u);
  const auto nb = knn.query(data.row(8), 1);
  EXPECT_EQ(knn.dataset_index(nb[0].index), 8u);
}

}  // namespace
}  // namespace frote
