#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "frote/ml/decision_tree.hpp"
#include "frote/ml/gbdt.hpp"
#include "frote/ml/logistic_regression.hpp"
#include "frote/ml/online_logreg.hpp"
#include "frote/ml/random_forest.hpp"
#include "test_util.hpp"

namespace frote {
namespace {

double train_accuracy(const Model& model, const Dataset& data) {
  std::size_t correct = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (model.predict(data.row(i)) == data.label(i)) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(data.size());
}

void expect_valid_proba(const Model& model, const Dataset& data) {
  for (std::size_t i = 0; i < std::min<std::size_t>(data.size(), 20); ++i) {
    const auto p = model.predict_proba(data.row(i));
    ASSERT_EQ(p.size(), data.num_classes());
    double total = 0.0;
    for (double v : p) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0 + 1e-12);
      total += v;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

/// Parameterized across all four learners: separable blobs must be learned
/// almost perfectly and probabilities must be valid distributions.
enum class Kind { kDT, kRF, kLR, kGBDT };

class LearnerSuite : public ::testing::TestWithParam<Kind> {
 protected:
  std::unique_ptr<Learner> make() const {
    switch (GetParam()) {
      case Kind::kDT: return std::make_unique<DecisionTreeLearner>();
      case Kind::kRF: return std::make_unique<RandomForestLearner>();
      case Kind::kLR: return std::make_unique<LogisticRegressionLearner>();
      case Kind::kGBDT: return std::make_unique<GbdtLearner>();
    }
    return nullptr;
  }
};

TEST_P(LearnerSuite, LearnsSeparableBlobs) {
  auto data = testing::blobs_dataset(80);
  const auto model = make()->train(data);
  EXPECT_GE(train_accuracy(*model, data), 0.97);
}

TEST_P(LearnerSuite, ProbabilitiesAreDistributions) {
  auto data = testing::blobs_dataset(50);
  const auto model = make()->train(data);
  expect_valid_proba(*model, data);
}

TEST_P(LearnerSuite, LearnsMixedThresholdData) {
  auto data = testing::threshold_dataset(400);
  const auto model = make()->train(data);
  EXPECT_GE(train_accuracy(*model, data), 0.9);
}

TEST_P(LearnerSuite, DeterministicAcrossCalls) {
  auto data = testing::threshold_dataset(150);
  const auto m1 = make()->train(data);
  const auto m2 = make()->train(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(m1->predict(data.row(i)), m2->predict(data.row(i)));
  }
}

TEST_P(LearnerSuite, EmptyDatasetRejected) {
  Dataset empty(testing::numeric2d_schema());
  EXPECT_THROW(make()->train(empty), Error);
}

INSTANTIATE_TEST_SUITE_P(AllModels, LearnerSuite,
                         ::testing::Values(Kind::kDT, Kind::kRF, Kind::kLR,
                                           Kind::kGBDT),
                         [](const auto& info) {
                           switch (info.param) {
                             case Kind::kDT: return "DecisionTree";
                             case Kind::kRF: return "RandomForest";
                             case Kind::kLR: return "LogisticRegression";
                             case Kind::kGBDT: return "Gbdt";
                           }
                           return "Unknown";
                         });

TEST(DecisionTree, DepthRespectsLimit) {
  DecisionTreeConfig config;
  config.max_depth = 2;
  auto data = testing::threshold_dataset(300);
  const auto model = DecisionTreeLearner(config).train(data);
  const auto* tree = dynamic_cast<const DecisionTreeModel*>(model.get());
  ASSERT_NE(tree, nullptr);
  EXPECT_LE(tree->depth(), 2u);
}

TEST(DecisionTree, SplitsOnCategoricalWhenInformative) {
  // Label depends only on the categorical feature.
  Dataset data(testing::mixed_schema());
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const double color = static_cast<double>(i % 3);
    data.add_row({rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0), color},
                 color == 2.0 ? 1 : 0);
  }
  const auto model = DecisionTreeLearner().train(data);
  EXPECT_DOUBLE_EQ(train_accuracy(*model, data), 1.0);
}

TEST(RandomForest, MoreTreesNoWorse) {
  auto data = testing::threshold_dataset(300, 5.0, 77);
  RandomForestConfig small, big;
  small.num_trees = 2;
  big.num_trees = 40;
  const auto m_small = RandomForestLearner(small).train(data);
  const auto m_big = RandomForestLearner(big).train(data);
  EXPECT_GE(train_accuracy(*m_big, data) + 0.02,
            train_accuracy(*m_small, data));
}

TEST(LogisticRegression, RecoverLinearBoundaryDirection) {
  auto data = testing::blobs_dataset(100);
  const auto model = LogisticRegressionLearner().train(data);
  // Points on the class-1 side must get higher class-1 probability.
  const std::vector<double> far1 = {6.0, 6.0};
  const std::vector<double> far0 = {0.0, 0.0};
  EXPECT_GT(model->predict_proba(far1)[1], 0.9);
  EXPECT_LT(model->predict_proba(far0)[1], 0.1);
}

TEST(Gbdt, MulticlassSoftmax) {
  // 3-class 1-d problem: class by interval.
  auto schema = std::make_shared<Schema>(
      std::vector<FeatureSpec>{FeatureSpec::numeric("x")},
      std::vector<std::string>{"lo", "mid", "hi"});
  Dataset data(schema);
  Rng rng(5);
  for (int i = 0; i < 300; ++i) {
    const double x = rng.uniform(0.0, 3.0);
    data.add_row({x}, x < 1.0 ? 0 : (x < 2.0 ? 1 : 2));
  }
  const auto model = GbdtLearner().train(data);
  EXPECT_GE(train_accuracy(*model, data), 0.95);
  expect_valid_proba(*model, data);
}

/// FNV-1a over every node of every tree: feature, threshold bits,
/// categorical, children and leaf-value bits.
std::uint64_t tree_digest(const Model& model) {
  const auto* gbdt = dynamic_cast<const GbdtModel*>(&model);
  EXPECT_NE(gbdt, nullptr);
  if (gbdt == nullptr) return 0;
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&](std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      hash ^= (word >> (8 * b)) & 0xFF;
      hash *= 0x100000001b3ULL;
    }
  };
  const auto bits = [](double v) {
    std::uint64_t u;
    std::memcpy(&u, &v, sizeof u);
    return u;
  };
  for (const auto& tree : gbdt->trees()) {
    for (const auto& node : tree.nodes) {
      mix(node.feature);
      mix(bits(node.threshold));
      mix(node.categorical ? 1 : 0);
      mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(node.left)));
      mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(node.right)));
      mix(bits(node.value));
    }
  }
  return hash;
}

TEST(Gbdt, TreesMatchPinnedDigests) {
  // Split-search lock: these digests were taken from the per-node radix
  // split search; any rewrite of it must grow bit-identical trees. The data
  // covers ties, mixed -0.0/+0.0, a constant column, categoricals, binary
  // and 7-class labels, and leaves close to min_samples_leaf. Threads
  // follow FROTE_NUM_THREADS, so ci.sh's 4-thread leg checks the same
  // digests with the split search on the pool.
  GbdtConfig config;
  config.num_rounds = 6;
  const auto binary = testing::gbdt_stress_dataset(240, 2, 11);
  const auto multi = testing::gbdt_stress_dataset(300, 7, 12);
  EXPECT_EQ(tree_digest(*GbdtLearner(config).train(binary)),
            0xad726c9b096bf513ULL);
  EXPECT_EQ(tree_digest(*GbdtLearner(config).train(multi)),
            0x0987811e4b18a775ULL);

  GbdtConfig tight = config;
  tight.min_samples_leaf = 12;
  const auto small = testing::gbdt_stress_dataset(90, 2, 13);
  EXPECT_EQ(tree_digest(*GbdtLearner(tight).train(small)),
            0x1d2929d04a22211bULL);

  // The additive update boosts on top of replayed scores over grown data.
  GbdtConfig additive = config;
  additive.update_rounds = 3;
  const GbdtAdditiveLearner learner(additive);
  const auto grown = testing::gbdt_stress_dataset(340, 7, 12);
  const auto previous = learner.train(multi);
  EXPECT_EQ(tree_digest(*learner.update(*previous, grown, multi.size())),
            0x27abd1ad42cdc6bbULL);
}

TEST(OnlineLogReg, DistillsTeacher) {
  auto data = testing::blobs_dataset(100);
  const auto teacher = LogisticRegressionLearner().train(data);
  const OnlineLogReg student(data, *teacher);
  std::size_t agree = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (student.predict(data.row(i)) == teacher->predict(data.row(i))) {
      ++agree;
    }
  }
  EXPECT_GE(static_cast<double>(agree) / static_cast<double>(data.size()),
            0.95);
}

TEST(OnlineLogReg, UpdateMovesDecision) {
  auto data = testing::blobs_dataset(50);
  OnlineLogReg model(data);
  const std::vector<double> point = {3.0, 3.0};  // near the midpoint
  // Hammer updates labelling the midpoint as class 0.
  for (int i = 0; i < 300; ++i) model.update(point, 0);
  EXPECT_EQ(model.predict(point), 0);
  // Now hammer the other way.
  for (int i = 0; i < 600; ++i) model.update(point, 1);
  EXPECT_EQ(model.predict(point), 1);
}

}  // namespace
}  // namespace frote
