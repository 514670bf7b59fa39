// Perf contract for the steppable loop (slow label): Session::step() runs
// select → generate → stage → retrain → commit/rollback without copying the
// dataset.
#include <gtest/gtest.h>

#include "frote/core/engine.hpp"
#include "frote/ml/decision_tree.hpp"
#include "test_util.hpp"

namespace frote {
namespace {

struct Workload {
  Dataset train = testing::threshold_dataset(600, 5.0, /*seed=*/11);
  FeedbackRuleSet frs{std::vector<FeedbackRule>{testing::x_gt_rule(7.0, 0)}};
  DecisionTreeLearner learner;
  FroteConfig config;

  Workload() {
    config.tau = 10;
    config.q = 0.5;
    config.eta = 30;
    config.seed = 99;
    config.mod_strategy = ModStrategy::kNone;
  }
};

TEST(EnginePerf, SteppingNeverCopiesTheDataset) {
  // The incremental session workspace contract: after open() (which clones
  // the input once into D̂), the select → generate → stage → retrain →
  // commit/rollback loop runs with zero Dataset copy constructions on both
  // the accept and the reject path — candidate batches are staged in place.
  Workload w;
  w.config.tau = 6;
  const auto engine =
      Engine::Builder().from_config(w.config).rules(w.frs).build().value();
  auto session = engine.open(w.train, w.learner).value();
  const std::uint64_t copies_after_open = Dataset::copy_count();
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  while (!session.finished()) {
    const StepReport report = session.step();
    if (report.terminal()) break;
    accepted += report.status == StepStatus::kAccepted ? 1 : 0;
    rejected += report.status == StepStatus::kRejected ? 1 : 0;
  }
  EXPECT_GT(accepted + rejected, 0u);  // the loop must actually run
  EXPECT_EQ(Dataset::copy_count(), copies_after_open)
      << "Session::step() copied the dataset (" << accepted << " accepted, "
      << rejected << " rejected steps)";
}

}  // namespace
}  // namespace frote
