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
