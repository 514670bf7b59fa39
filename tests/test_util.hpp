// Shared helpers for the test suite: tiny hand-built datasets with known
// geometry so rule/FROTE behaviour can be asserted exactly.
#pragma once

#include <memory>
#include <string>

#include "frote/core/engine.hpp"
#include "frote/data/dataset.hpp"
#include "frote/rules/rule.hpp"
#include "frote/util/rng.hpp"

namespace frote::testing {

/// Schema: x (numeric), y (numeric), color ∈ {red, green, blue}; 2 classes.
inline std::shared_ptr<const Schema> mixed_schema() {
  return std::make_shared<Schema>(
      std::vector<FeatureSpec>{
          FeatureSpec::numeric("x"),
          FeatureSpec::numeric("y"),
          FeatureSpec::categorical("color", {"red", "green", "blue"}),
      },
      std::vector<std::string>{"neg", "pos"});
}

/// Grid dataset over the mixed schema: label = 1 iff x > threshold.
/// `n` points with x in [0, 10), y in [0, 10), color cycling.
inline Dataset threshold_dataset(std::size_t n = 200, double threshold = 5.0,
                                 std::uint64_t seed = 7) {
  Dataset data(mixed_schema());
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = rng.uniform(0.0, 10.0);
    const double y = rng.uniform(0.0, 10.0);
    const double color = static_cast<double>(i % 3);
    data.add_row({x, y, color}, x > threshold ? 1 : 0);
  }
  return data;
}

/// Purely numeric 2-d schema with 2 classes.
inline std::shared_ptr<const Schema> numeric2d_schema() {
  return std::make_shared<Schema>(
      std::vector<FeatureSpec>{FeatureSpec::numeric("x"),
                               FeatureSpec::numeric("y")},
      std::vector<std::string>{"a", "b"});
}

/// Two well-separated Gaussian blobs.
inline Dataset blobs_dataset(std::size_t n_per_class = 100,
                             double separation = 6.0, std::uint64_t seed = 3) {
  Dataset data(numeric2d_schema());
  Rng rng(seed);
  for (std::size_t i = 0; i < n_per_class; ++i) {
    data.add_row({rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)}, 0);
    data.add_row({rng.normal(separation, 1.0), rng.normal(separation, 1.0)},
                 1);
  }
  return data;
}

/// Split-search stress data for the GBDT locks: a continuous column, a
/// heavily tied column, a column of mixed -0.0/+0.0 with a few ±1s, a
/// constant column, a negative column and two categoricals; `classes`
/// labels driven by x, the ties and a categorical, with some noise.
inline Dataset gbdt_stress_dataset(std::size_t n, std::size_t classes,
                                   std::uint64_t seed) {
  std::vector<std::string> labels;
  for (std::size_t c = 0; c < classes; ++c) {
    labels.push_back("c" + std::to_string(c));
  }
  auto schema = std::make_shared<Schema>(
      std::vector<FeatureSpec>{
          FeatureSpec::numeric("x"),
          FeatureSpec::numeric("ties"),
          FeatureSpec::categorical("shade", {"a", "b", "c", "d"}),
          FeatureSpec::numeric("zeros"),
          FeatureSpec::numeric("constant"),
          FeatureSpec::numeric("neg"),
          FeatureSpec::categorical("flag", {"off", "on"}),
      },
      labels);
  Dataset data(schema);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = rng.uniform(0.0, 10.0);
    const double ties = 0.5 * static_cast<double>(rng.index(4));
    const double shade = static_cast<double>(rng.index(4));
    const std::size_t z = rng.index(10);
    const double zeros = z < 4 ? -0.0 : (z < 8 ? 0.0 : (z == 8 ? -1.0 : 1.0));
    const double neg = -rng.uniform(1.0, 5.0);
    const double flag = static_cast<double>(rng.index(2));
    std::size_t label = static_cast<std::size_t>(x * 0.4 + ties + shade) +
                        (zeros > 0.0 ? 1 : 0);
    if (rng.bernoulli(0.1)) label += rng.index(classes);
    data.add_row({x, ties, shade, zeros, 3.0, neg, flag},
                 static_cast<int>(label % classes));
  }
  return data;
}

/// Rule "IF x > lo THEN pos" over the mixed schema.
inline FeedbackRule x_gt_rule(double lo, int target = 1) {
  Clause clause({Predicate{0, Op::kGt, lo}});
  return FeedbackRule::deterministic(clause, target, 2);
}

/// One whole edit through Engine/Session: build from `config` + `frs`, open
/// a session on (data, learner) and run it to the stopping criterion.
inline FroteResult run_edit(const Dataset& data, const Learner& learner,
                            const FeedbackRuleSet& frs,
                            const FroteConfig& config,
                            std::string selector = "random") {
  const auto engine = Engine::Builder().from_config(config).rules(frs)
                          .selector(std::move(selector)).build().value();
  auto session = engine.open(data, learner).value();
  session.run();
  return std::move(session).result();
}

}  // namespace frote::testing
