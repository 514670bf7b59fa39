// Gradient-boosted decision trees — the LightGBM (Ke et al. 2017) stand-in.
//
// Second-order boosting (XGBoost/LightGBM-style gain with L2 leaf
// regularisation), leaf-wise tree growth with a max-leaves budget, logistic
// loss for binary problems and softmax (one tree per class per round) for
// multiclass. Splits come from an exact search over quantile cuts of
// columns presorted once per boost (not LightGBM's 255-bin histograms).
// LightGBM's GOSS/EFB engineering is not reproduced — it changes
// constants, not the decision boundaries the paper's experiments depend on.
#pragma once

#include "frote/ml/model.hpp"

namespace frote {

struct GbdtConfig {
  std::size_t num_rounds = 60;
  double learning_rate = 0.1;
  std::size_t max_leaves = 15;
  std::size_t max_depth = 6;
  double lambda = 1.0;          // L2 on leaf values
  double min_child_weight = 1e-3;
  std::size_t min_samples_leaf = 5;
  std::size_t numeric_cuts = 24;
  /// Threads for the gradient sweep, the per-boost presort and the
  /// per-node split search and partition; 0 ⇒ FROTE_NUM_THREADS.
  /// Deterministic for every value.
  int threads = 0;
  /// Boosting rounds GbdtAdditiveLearner::update() appends on top of the
  /// previous ensemble (ignored by the exact learner).
  std::size_t update_rounds = 5;
};

/// A single regression tree of the ensemble.
struct GbdtTree {
  struct Node {
    std::size_t feature = 0;
    double threshold = 0.0;
    bool categorical = false;   // categorical: x == threshold goes left
    int left = -1, right = -1;  // -1 ⇒ leaf
    double value = 0.0;         // leaf output
  };
  std::vector<Node> nodes;

  double predict(std::span<const double> row) const;
};

class GbdtModel : public Model {
 public:
  /// trees[round * score_dims + k] is the round's tree for score k.
  GbdtModel(std::vector<GbdtTree> trees, std::size_t num_classes,
            std::size_t score_dims, double base_score);

  std::vector<double> predict_proba(std::span<const double> row) const override;
  void predict_proba_into(std::span<const double> row,
                          std::vector<double>& out) const override;

  std::size_t num_trees() const { return trees_.size(); }
  const std::vector<GbdtTree>& trees() const { return trees_; }
  std::size_t score_dims() const { return score_dims_; }
  double base_score() const { return base_score_; }

 private:
  std::vector<GbdtTree> trees_;
  std::size_t score_dims_;  // 1 for binary, num_classes for multiclass
  double base_score_;
};

class GbdtLearner : public Learner {
 public:
  explicit GbdtLearner(GbdtConfig config = {}) : config_(config) {}

  std::unique_ptr<Model> train(const Dataset& data) const override;
  std::string name() const override { return "LGBM"; }

 private:
  GbdtConfig config_;
};

/// Opt-in approximate variant ("gbdt_additive" in the registry): train() is
/// the plain full boost, but update() keeps the previous ensemble's trees,
/// replays their scores over the grown dataset (one cheap predict sweep),
/// and boosts `update_rounds` additional rounds against the residuals — so
/// an accept costs a few rounds instead of num_rounds. The ensemble keeps
/// growing across updates and is NOT bit-identical to a cold retrain
/// (docs/DESIGN.md §10).
class GbdtAdditiveLearner : public Learner {
 public:
  explicit GbdtAdditiveLearner(GbdtConfig config = {}) : config_(config) {}

  std::unique_ptr<Model> train(const Dataset& data) const override;
  std::unique_ptr<Model> update(const Model& previous, const Dataset& data,
                                std::size_t trained_rows) const override;
  std::string name() const override { return "LGBM-additive"; }

 private:
  GbdtConfig config_;
};

}  // namespace frote
