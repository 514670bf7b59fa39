// k-nearest-neighbour classifier over the SMOTE-NC mixed-type metric,
// reusing the library's kNN index (make_knn_index: the signature-grouped
// scan, sharded past KnnIndexConfig::shard_min_rows). Another black-box learner
// for exercising FROTE's model-agnosticism; interesting because its decision
// boundary is *exactly* the data — editing the dataset edits the model
// one-for-one.
#pragma once

#include "frote/knn/knn.hpp"
#include "frote/ml/model.hpp"

namespace frote {

struct KnnClassifierConfig {
  std::size_t k = 5;
  /// Weight votes by inverse distance instead of uniformly.
  bool distance_weighted = false;
};

class KnnClassifierModel : public Model {
 public:
  KnnClassifierModel(const Dataset& data, KnnClassifierConfig config);

  std::vector<double> predict_proba(std::span<const double> row) const override;

 private:
  KnnClassifierConfig config_;
  std::vector<int> labels_;
  std::unique_ptr<KnnIndex> index_;
};

class KnnClassifierLearner : public Learner {
 public:
  explicit KnnClassifierLearner(KnnClassifierConfig config = {})
      : config_(config) {}

  std::unique_ptr<Model> train(const Dataset& data) const override;
  std::string name() const override { return "KNN"; }

 private:
  KnnClassifierConfig config_;
};

}  // namespace frote
