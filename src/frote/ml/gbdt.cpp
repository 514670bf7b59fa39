#include "frote/ml/gbdt.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "frote/ml/logistic_regression.hpp"  // softmax_inplace
#include "frote/ml/split_radix.hpp"
#include "frote/util/parallel.hpp"

namespace frote {

namespace {
/// Rows per chunk for the gradient/hessian sweep and the update's score
/// replay. Each row is written independently, so any thread count is
/// trivially bit-identical.
constexpr std::size_t kRowGrain = 512;
}  // namespace

double GbdtTree::predict(std::span<const double> row) const {
  if (nodes.empty()) return 0.0;
  int cur = 0;
  while (nodes[static_cast<std::size_t>(cur)].left >= 0) {
    const Node& n = nodes[static_cast<std::size_t>(cur)];
    const double x = row[n.feature];
    const bool go_left = n.categorical ? (x == n.threshold)
                                       : (x <= n.threshold);
    cur = go_left ? n.left : n.right;
  }
  return nodes[static_cast<std::size_t>(cur)].value;
}

GbdtModel::GbdtModel(std::vector<GbdtTree> trees, std::size_t num_classes,
                     std::size_t score_dims, double base_score)
    : Model(num_classes), trees_(std::move(trees)), score_dims_(score_dims),
      base_score_(base_score) {
  FROTE_CHECK(score_dims_ >= 1);
  FROTE_CHECK(trees_.size() % score_dims_ == 0);
}

std::vector<double> GbdtModel::predict_proba(
    std::span<const double> row) const {
  std::vector<double> out;
  predict_proba_into(row, out);
  return out;
}

void GbdtModel::predict_proba_into(std::span<const double> row,
                                   std::vector<double>& out) const {
  const std::size_t rounds = trees_.size() / score_dims_;
  if (score_dims_ == 1) {
    double score = base_score_;
    for (std::size_t r = 0; r < rounds; ++r) score += trees_[r].predict(row);
    const double p1 = 1.0 / (1.0 + std::exp(-score));
    out.assign(2, 0.0);
    out[0] = 1.0 - p1;
    out[1] = p1;
    return;
  }
  out.assign(score_dims_, base_score_);
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t k = 0; k < score_dims_; ++k) {
      out[k] += trees_[r * score_dims_ + k].predict(row);
    }
  }
  softmax_inplace(out);
}

namespace {

struct SplitChoice {
  std::size_t feature = 0;
  double threshold = 0.0;
  bool categorical = false;
  double gain = 0.0;
  bool valid = false;
};

/// Leaf under construction during leaf-wise growth. Its rows occupy
/// [begin, end) of every per-feature row list (see TreeGrower).
struct Leaf {
  int node_id = 0;
  std::size_t depth = 0;
  std::size_t begin = 0, end = 0;
  double sum_g = 0.0, sum_h = 0.0;
  SplitChoice split;
};

struct LeafGainCmp {
  bool operator()(const Leaf* a, const Leaf* b) const {
    return a->split.gain < b->split.gain;
  }
};

/// Per-thread split-search scratch. find_split fans features out across
/// pool threads, so these buffers cannot live on the (shared) grower;
/// after warm-up each worker reuses its own.
struct SplitScratch {
  std::vector<double> cuts;
  std::vector<double> gs, hs;
  std::vector<std::size_t> counts;
  std::vector<std::uint32_t> rights;
};

SplitScratch& split_scratch() {
  thread_local SplitScratch scratch;
  return scratch;
}

/// Grows the trees of one boost_rounds call with the exact presorted
/// ("SLIQ" / XGBoost-exact) split search. The constructor sorts every
/// numeric column once, by (split_value_key(value), row); every tree
/// starts from that order, and each split stable-partitions its leaf's
/// range of every list into the two children. A stable partition of a
/// (key, row)-sorted list is that subset's (key, row) order, which is what
/// a stable sort of the leaf's ascending rows at every node produced, so
/// cuts, g/h prefix sums and trees are bit-identical to sorting per node.
///
/// List 0 holds the rows in ascending order: leaf sums and categorical
/// features read it. Each numeric feature has its own list. The root reads
/// the presorted lists; splits write into one shared working buffer in
/// which every leaf owns [begin, end) of each list, the same layout as the
/// decision-tree builder's order_, so a tree never copies the root lists.
class TreeGrower {
 public:
  TreeGrower(const Dataset& data, const std::vector<double>& g,
             const std::vector<double>& h, const GbdtConfig& config)
      : data_(data), g_(g), h_(h), config_(config), n_(data.size()) {
    const std::size_t features = data_.num_features();
    list_of_.assign(features, 0);
    for (std::size_t f = 0; f < features; ++f) {
      if (!data_.schema().feature(f).is_categorical()) {
        list_of_[f] = num_lists_++;
      }
    }
    sorted_.resize(num_lists_ * n_);
    order_.resize(num_lists_ * n_);
    columns_.resize((num_lists_ - 1) * n_);
    side_.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      sorted_[i] = static_cast<std::uint32_t>(i);
    }
    // One stable LSD radix per numeric column over ascending rows (the
    // shared ml/split_radix.hpp kernel), so every double, -0.0 and NaN
    // included, lands where the per-node sort put it. -0.0 folds onto
    // +0.0 so the two zero encodings stay one tie group, as they are under
    // double comparison.
    parallel_for(features, 1, config_.threads,
                 [&](std::size_t begin, std::size_t end) {
                   for (std::size_t f = begin; f < end; ++f) {
                     if (list_of_[f] != 0) presort(f);
                   }
                 });
  }

  /// Grows one tree against the current g/h and adds its leaf values to
  /// score column k (scores is row-major n x dims).
  GbdtTree grow(std::vector<double>& scores, std::size_t dims,
                std::size_t k) {
    GbdtTree tree;
    auto root = std::make_unique<Leaf>();
    root->node_id = 0;
    root->end = n_;
    tree.nodes.push_back({});
    accumulate(*root);
    find_split(*root);

    std::vector<std::unique_ptr<Leaf>> leaves;
    std::priority_queue<Leaf*, std::vector<Leaf*>, LeafGainCmp> frontier;
    leaves.push_back(std::move(root));
    frontier.push(leaves.back().get());

    std::size_t num_leaves = 1;
    while (num_leaves < config_.max_leaves && !frontier.empty()) {
      Leaf* leaf = frontier.top();
      frontier.pop();
      if (!leaf->split.valid || leaf->split.gain <= 0.0) continue;

      const std::size_t nl = mark_sides(*leaf);
      if (nl < config_.min_samples_leaf ||
          leaf->end - leaf->begin - nl < config_.min_samples_leaf) {
        continue;
      }
      partition(*leaf, nl);
      auto left = std::make_unique<Leaf>();
      auto right = std::make_unique<Leaf>();
      left->depth = right->depth = leaf->depth + 1;
      left->begin = leaf->begin;
      left->end = right->begin = leaf->begin + nl;
      right->end = leaf->end;
      left->node_id = static_cast<int>(tree.nodes.size());
      tree.nodes.push_back({});
      right->node_id = static_cast<int>(tree.nodes.size());
      tree.nodes.push_back({});
      // Only now: list() tells the root's presorted lists by node id 0.
      accumulate(*left);
      accumulate(*right);
      // Take the parent reference only after the push_backs above: they can
      // reallocate the node vector.
      auto& parent = tree.nodes[static_cast<std::size_t>(leaf->node_id)];
      parent.feature = leaf->split.feature;
      parent.threshold = leaf->split.threshold;
      parent.categorical = leaf->split.categorical;
      parent.left = left->node_id;
      parent.right = right->node_id;

      if (left->depth < config_.max_depth) find_split(*left);
      if (right->depth < config_.max_depth) find_split(*right);
      frontier.push(left.get());
      frontier.push(right.get());
      leaves.push_back(std::move(left));
      leaves.push_back(std::move(right));
      ++num_leaves;
    }

    // Finalize leaf values, -G/(H+λ) damped by the learning rate, and add
    // each to its rows' scores: the partition already routed every row to
    // the leaf tree.predict() would reach.
    for (const auto& leaf : leaves) {
      auto& node = tree.nodes[static_cast<std::size_t>(leaf->node_id)];
      if (node.left >= 0) continue;
      node.value = -config_.learning_rate * leaf->sum_g /
                   (leaf->sum_h + config_.lambda);
      const std::uint32_t* rows = list(*leaf, 0);
      for (std::size_t i = 0; i < leaf->end - leaf->begin; ++i) {
        scores[rows[i] * dims + k] += node.value;
      }
    }
    return tree;
  }

 private:
  /// Leaf's rows in list `id`: the presorted lists for the root, the
  /// working buffer for every leaf a split produced.
  const std::uint32_t* list(const Leaf& leaf, std::size_t id) const {
    const auto& lists = leaf.node_id == 0 ? sorted_ : order_;
    return lists.data() + id * n_ + leaf.begin;
  }

  void presort(std::size_t f) {
    const std::size_t id = list_of_[f];
    double* column = columns_.data() + (id - 1) * n_;
    std::vector<std::uint64_t> keys[2] = {std::vector<std::uint64_t>(n_),
                                          std::vector<std::uint64_t>(n_)};
    std::vector<std::uint32_t> rows[2] = {std::vector<std::uint32_t>(n_),
                                          std::vector<std::uint32_t>(n_)};
    std::vector<std::uint32_t> hist(8 * 256, 0);
    for (std::size_t i = 0; i < n_; ++i) {
      double value = data_.row_ptr(i)[f];
      if (value == 0.0) value = 0.0;  // canonicalise -0.0
      column[i] = value;
      const std::uint64_t key = detail::split_value_key(value);
      keys[0][i] = key;
      rows[0][i] = static_cast<std::uint32_t>(i);
      for (std::size_t b = 0; b < 8; ++b) {
        ++hist[b * 256 + ((key >> (8 * b)) & 0xFF)];
      }
    }
    const int cur = detail::radix_sort_pairs(keys, rows, hist);
    std::copy(rows[cur].begin(), rows[cur].end(),
              sorted_.begin() + static_cast<std::ptrdiff_t>(id * n_));
  }

  /// One byte per row of the leaf: 1 iff it goes left under the leaf's
  /// split. Returns the left count.
  std::size_t mark_sides(const Leaf& leaf) {
    const SplitChoice& split = leaf.split;
    const std::uint32_t* rows = list(leaf, 0);
    std::size_t nl = 0;
    for (std::size_t i = 0; i < leaf.end - leaf.begin; ++i) {
      const double x = data_.row_ptr(rows[i])[split.feature];
      const bool go_left = split.categorical ? (x == split.threshold)
                                             : (x <= split.threshold);
      side_[rows[i]] = go_left ? 1 : 0;
      nl += go_left ? 1 : 0;
    }
    return nl;
  }

  /// Stable partition of every list's leaf range into the working buffer:
  /// the left child takes [begin, begin + nl), the right child the rest.
  /// Each list is independent, so they fan out over the pool.
  void partition(const Leaf& leaf, std::size_t nl) {
    const std::size_t m = leaf.end - leaf.begin;
    parallel_for(num_lists_, 1, config_.threads,
                 [&](std::size_t begin, std::size_t end) {
                   auto& rights = split_scratch().rights;
                   rights.resize(m);
                   for (std::size_t id = begin; id < end; ++id) {
                     // In place for every leaf but the root; a write never
                     // passes the read position, so that is safe.
                     const std::uint32_t* src = list(leaf, id);
                     std::uint32_t* dst =
                         order_.data() + id * n_ + leaf.begin;
                     std::size_t l = 0, r = 0;
                     for (std::size_t i = 0; i < m; ++i) {
                       const std::uint32_t row = src[i];
                       const std::size_t go_left = side_[row];
                       dst[l] = row;
                       rights[r] = row;
                       l += go_left;
                       r += 1 - go_left;
                     }
                     std::copy(rights.begin(),
                               rights.begin() + static_cast<std::ptrdiff_t>(r),
                               dst + nl);
                   }
                 });
  }

  void accumulate(Leaf& leaf) const {
    leaf.sum_g = leaf.sum_h = 0.0;
    const std::uint32_t* rows = list(leaf, 0);
    for (std::size_t i = 0; i < leaf.end - leaf.begin; ++i) {
      leaf.sum_g += g_[rows[i]];
      leaf.sum_h += h_[rows[i]];
    }
  }

  double leaf_score(double g, double h) const {
    return g * g / (h + config_.lambda);
  }

  /// Per-round split search. Features are scored independently (each one
  /// produces its own local best) and combined in ascending feature order,
  /// so the chosen split is a pure function of the leaf — never of the
  /// thread count.
  void find_split(Leaf& leaf) {
    leaf.split = {};
    if (leaf.end - leaf.begin < 2 * config_.min_samples_leaf) return;
    const double parent_score = leaf_score(leaf.sum_g, leaf.sum_h);
    leaf.split = parallel_reduce(
        data_.num_features(), 1, config_.threads, SplitChoice{},
        [&](std::size_t begin, std::size_t end) {
          SplitChoice local;
          for (std::size_t f = begin; f < end; ++f) {
            if (list_of_[f] == 0) {
              eval_categorical(leaf, f, parent_score, local);
            } else {
              eval_numeric(leaf, f, parent_score, local);
            }
          }
          return local;
        },
        [](SplitChoice& acc, SplitChoice&& part) {
          if (part.valid && part.gain > acc.gain + 1e-12) acc = part;
        });
  }

  void try_update(const Leaf& leaf, SplitChoice& best, std::size_t feature,
                  double threshold, bool categorical, double gl, double hl,
                  double parent_score) const {
    const double gr = leaf.sum_g - gl;
    const double hr = leaf.sum_h - hl;
    if (hl < config_.min_child_weight || hr < config_.min_child_weight) return;
    const double gain =
        0.5 * (leaf_score(gl, hl) + leaf_score(gr, hr) - parent_score);
    if (gain > best.gain + 1e-12) {
      best = {feature, threshold, categorical, gain, true};
    }
  }

  void eval_categorical(const Leaf& leaf, std::size_t f, double parent_score,
                        SplitChoice& best) const {
    const std::size_t cardinality =
        data_.schema().feature(f).cardinality();
    auto& scratch = split_scratch();
    auto& gs = scratch.gs;
    auto& hs = scratch.hs;
    auto& counts = scratch.counts;
    gs.assign(cardinality, 0.0);
    hs.assign(cardinality, 0.0);
    counts.assign(cardinality, 0);
    const std::uint32_t* rows = list(leaf, 0);
    const std::size_t m = leaf.end - leaf.begin;
    for (std::size_t i = 0; i < m; ++i) {
      const std::size_t idx = rows[i];
      const auto code = static_cast<std::size_t>(data_.row_ptr(idx)[f]);
      gs[code] += g_[idx];
      hs[code] += h_[idx];
      counts[code]++;
    }
    for (std::size_t code = 0; code < cardinality; ++code) {
      if (counts[code] < config_.min_samples_leaf ||
          m - counts[code] < config_.min_samples_leaf) {
        continue;
      }
      try_update(leaf, best, f, static_cast<double>(code), true, gs[code],
                 hs[code], parent_score);
    }
  }

  void eval_numeric(const Leaf& leaf, std::size_t f, double parent_score,
                    SplitChoice& best) const {
    // The leaf's rows of feature f are already in (split_value_key, row)
    // order, so the search is the quantile cuts over that range plus one
    // g/h prefix sweep; the sweep adds in the presorted order, replaying
    // the float-add sequence a per-node sort produced.
    const std::size_t id = list_of_[f];
    const std::uint32_t* rows = list(leaf, id);
    const double* column = columns_.data() + (id - 1) * n_;
    const std::size_t m = leaf.end - leaf.begin;
    const auto value_at = [&](std::size_t i) { return column[rows[i]]; };
    if (m < 2 || detail::split_value_key(value_at(0)) ==
                     detail::split_value_key(value_at(m - 1))) {
      return;
    }
    auto& cuts = split_scratch().cuts;
    cuts.clear();
    const std::size_t k = std::min(config_.numeric_cuts, m - 1);
    for (std::size_t t = 1; t <= k; ++t) {
      const std::size_t pos = t * (m - 1) / (k + 1);
      cuts.push_back(value_at(pos) != value_at(pos + 1)
                         ? 0.5 * (value_at(pos) + value_at(pos + 1))
                         : value_at(pos));
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

    double gl = 0.0, hl = 0.0;
    std::size_t nl = 0;
    for (double cut : cuts) {
      while (nl < m && value_at(nl) <= cut) {
        gl += g_[rows[nl]];
        hl += h_[rows[nl]];
        ++nl;
      }
      if (nl < config_.min_samples_leaf ||
          m - nl < config_.min_samples_leaf) {
        continue;
      }
      try_update(leaf, best, f, cut, false, gl, hl, parent_score);
    }
  }

  const Dataset& data_;
  const std::vector<double>& g_;
  const std::vector<double>& h_;
  const GbdtConfig& config_;
  const std::size_t n_;
  std::size_t num_lists_ = 1;         // list 0 + one per numeric feature
  std::vector<std::size_t> list_of_;  // feature -> its list (0: categorical)
  std::vector<double> columns_;       // numeric list id's canonical values
                                      // at (id - 1) * n + row
  std::vector<std::uint32_t> sorted_;  // presorted root lists, id * n + i
  std::vector<std::uint32_t> order_;   // working lists, same layout
  std::vector<std::uint8_t> side_;     // per row: 1 iff it goes left
};

/// The boosting loop shared by GbdtLearner::train and
/// GbdtAdditiveLearner::update: grow `rounds` further rounds of trees
/// against the current `scores` (row-major n x dims), appending to `trees`
/// and keeping `scores` in sync. Starting from zeroed scores and an empty
/// ensemble this IS the full training loop.
void boost_rounds(const Dataset& data, const GbdtConfig& config,
                  std::size_t dims, std::size_t rounds,
                  std::vector<double>& scores, std::vector<GbdtTree>& trees) {
  const std::size_t n = data.size();
  trees.reserve(trees.size() + rounds * dims);

  std::vector<double> g(n), h(n);
  TreeGrower grower(data, g, h, config);
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t k = 0; k < dims; ++k) {
      // Gradients/hessians of logistic (binary) or softmax (multiclass)
      // loss. Every row is independent, so the sweep fans out over fixed
      // row chunks with no effect on the result.
      parallel_for(n, kRowGrain, config.threads,
                   [&](std::size_t begin, std::size_t end) {
                     std::vector<double> probs(dims);
                     for (std::size_t i = begin; i < end; ++i) {
                       if (dims == 1) {
                         const double p = 1.0 / (1.0 + std::exp(-scores[i]));
                         const double target =
                             data.label(i) == 1 ? 1.0 : 0.0;
                         g[i] = p - target;
                         h[i] = std::max(p * (1.0 - p), 1e-9);
                       } else {
                         for (std::size_t c = 0; c < dims; ++c) {
                           probs[c] = scores[i * dims + c];
                         }
                         softmax_inplace(probs);
                         const double p = probs[k];
                         const double target =
                             static_cast<std::size_t>(data.label(i)) == k
                                 ? 1.0
                                 : 0.0;
                         g[i] = p - target;
                         h[i] = std::max(p * (1.0 - p), 1e-9);
                       }
                     }
                   });
      trees.push_back(grower.grow(scores, dims, k));
    }
  }
}

std::unique_ptr<Model> gbdt_full_train(const Dataset& data,
                                       const GbdtConfig& config) {
  FROTE_CHECK_MSG(!data.empty(), "cannot train on empty dataset");
  const std::size_t classes = data.num_classes();
  const std::size_t dims = classes == 2 ? 1 : classes;
  std::vector<double> scores(data.size() * dims, 0.0);
  std::vector<GbdtTree> trees;
  boost_rounds(data, config, dims, config.num_rounds, scores, trees);
  return std::make_unique<GbdtModel>(std::move(trees), classes, dims, 0.0);
}

}  // namespace

std::unique_ptr<Model> GbdtLearner::train(const Dataset& data) const {
  return gbdt_full_train(data, config_);
}

std::unique_ptr<Model> GbdtAdditiveLearner::train(const Dataset& data) const {
  return gbdt_full_train(data, config_);
}

std::unique_ptr<Model> GbdtAdditiveLearner::update(
    const Model& previous, const Dataset& data,
    std::size_t trained_rows) const {
  (void)trained_rows;
  FROTE_CHECK_MSG(!data.empty(), "cannot train on empty dataset");
  const std::size_t n = data.size();
  const std::size_t classes = data.num_classes();
  const std::size_t dims = classes == 2 ? 1 : classes;
  const auto* prev = dynamic_cast<const GbdtModel*>(&previous);
  if (prev == nullptr || prev->num_classes() != classes ||
      prev->score_dims() != dims || prev->base_score() != 0.0) {
    return gbdt_full_train(data, config_);
  }

  // Replay the previous ensemble's scores over the grown dataset (one
  // predict sweep — far cheaper than the rounds it stands in for), then
  // boost a few corrective rounds against the residuals.
  std::vector<GbdtTree> trees = prev->trees();
  std::vector<double> scores(n * dims, 0.0);
  const std::size_t rounds = trees.size() / dims;
  parallel_for(n, kRowGrain, config_.threads,
               [&](std::size_t begin, std::size_t end) {
                 for (std::size_t i = begin; i < end; ++i) {
                   const auto row = data.row(i);
                   for (std::size_t r = 0; r < rounds; ++r) {
                     for (std::size_t k = 0; k < dims; ++k) {
                       scores[i * dims + k] +=
                           trees[r * dims + k].predict(row);
                     }
                   }
                 }
               });
  boost_rounds(data, config_, dims, config_.update_rounds, scores, trees);
  return std::make_unique<GbdtModel>(std::move(trees), classes, dims, 0.0);
}

}  // namespace frote
