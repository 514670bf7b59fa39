#include "frote/core/generate.hpp"

#include <algorithm>
#include <cmath>
#include <map>

namespace frote {

namespace {
/// Nudge used to turn open interval endpoints into samplable closed ones.
double window_epsilon(double lo, double hi) {
  const double span = std::abs(hi - lo);
  return std::max(1e-9, span * 1e-6);
}
}  // namespace

RuleConstrainedGenerator::RuleConstrainedGenerator(
    const Dataset& data, const FeedbackRule& rule,
    const RuleBasePopulation& bp, const MixedDistance& distance,
    GenerateConfig config)
    : data_(&data), rule_(&rule), bp_(&bp), config_(config) {
  knn_ = std::make_unique<BruteKnn>(data, distance, bp.indices);
  const Schema& schema = data.schema();
  constraints_.reserve(schema.num_features());
  constrained_.reserve(schema.num_features());
  for (std::size_t f = 0; f < schema.num_features(); ++f) {
    constrained_.push_back(rule.clause.mentions(f));
    constraints_.push_back(rule.clause.constraint_for(f, schema));
  }
}

double RuleConstrainedGenerator::numeric_value(std::size_t f, double base,
                                               double neighbor,
                                               Rng& rng) const {
  if (!constrained_[f]) {
    // Plain SMOTE interpolation (eq. 6).
    return base + (neighbor - base) * rng.uniform();
  }
  const FeatureConstraint& c = constraints_[f];
  if (c.pinned.has_value()) return *c.pinned;  // '=' condition

  // Window from the rule's comparison operators (supplement A): closed
  // [w_lo, w_hi], with open endpoints pulled inward by an epsilon.
  double w_lo = c.lo;
  double w_hi = c.hi;
  const bool lo_finite = std::isfinite(w_lo);
  const bool hi_finite = std::isfinite(w_hi);
  const double eps = window_epsilon(lo_finite ? w_lo : base,
                                    hi_finite ? w_hi : neighbor);
  if (lo_finite && c.lo_open) w_lo += eps;
  if (hi_finite && c.hi_open) w_hi -= eps;

  // Tightest window: intersect with the segment between base and neighbour
  // so generated values stay SMOTE-like when possible.
  double seg_lo = std::min(base, neighbor);
  double seg_hi = std::max(base, neighbor);
  double lo = std::max(seg_lo, lo_finite ? w_lo : seg_lo);
  double hi = std::min(seg_hi, hi_finite ? w_hi : seg_hi);
  if (lo > hi) {
    // Segment lies outside the admissible window: sample the window itself.
    // Unbounded sides fall back to the nearest data-driven anchor.
    const auto stats = data_->numeric_column_stats(f);
    lo = lo_finite ? w_lo : std::min(stats.min, w_hi);
    hi = hi_finite ? w_hi : std::max(stats.max, w_lo);
    if (lo > hi) std::swap(lo, hi);
  }
  return rng.uniform(lo, hi == lo ? lo + 0.0 : hi);
}

double RuleConstrainedGenerator::categorical_value(
    std::size_t f, double base,
    const std::vector<std::span<const double>>& neighbor_rows,
    Rng& rng) const {
  // Values sorted by decreasing frequency among the neighbours
  // (supplement A); the base value breaks ties for determinism.
  std::map<double, std::size_t> votes;
  votes[base] += 1;
  for (const auto& row : neighbor_rows) votes[row[f]] += 1;
  std::vector<std::pair<std::size_t, double>> ranked;  // (count, value)
  ranked.reserve(votes.size());
  for (const auto& [value, count] : votes) ranked.push_back({count, value});
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });

  if (!constrained_[f]) return ranked.front().second;

  const FeatureConstraint& c = constraints_[f];
  if (c.allowed.has_value()) {
    return static_cast<double>(*c.allowed);  // '=' condition value
  }
  auto denied = [&](double value) {
    const auto code = static_cast<std::size_t>(value);
    return std::find(c.denied.begin(), c.denied.end(), code) != c.denied.end();
  };
  // Highest-ranked value that passes every '!=' condition.
  for (const auto& [count, value] : ranked) {
    if (!denied(value)) return value;
  }
  // All neighbour values denied: pick a uniformly random permitted code.
  const std::size_t cardinality = data_->schema().feature(f).cardinality();
  std::vector<double> permitted;
  for (std::size_t code = 0; code < cardinality; ++code) {
    if (!denied(static_cast<double>(code))) {
      permitted.push_back(static_cast<double>(code));
    }
  }
  FROTE_CHECK_MSG(!permitted.empty(),
                  "rule denies every category of feature " << f);
  return permitted[rng.index(permitted.size())];
}

int RuleConstrainedGenerator::sample_label(int base_label, Rng& rng) const {
  if (config_.rule_confidence >= 1.0) {
    // Deterministic rules assign the class; probabilistic π is sampled.
    return rule_->pi.is_deterministic() ? rule_->pi.mode()
                                        : rule_->pi.sample(rng);
  }
  // Supplement B's probabilistic-rule scheme: with probability p follow the
  // rule's class c; otherwise keep the base instance's label, except when it
  // already equals c, in which case pick uniformly among the other classes.
  const int c = rule_->pi.mode();
  if (rng.bernoulli(config_.rule_confidence)) return c;
  if (base_label != c) return base_label;
  const std::size_t classes = data_->num_classes();
  std::size_t draw = rng.index(classes - 1);
  if (draw >= static_cast<std::size_t>(c)) ++draw;
  return static_cast<int>(draw);
}

bool RuleConstrainedGenerator::generate(std::size_t bp_slot, Rng& rng,
                                        std::vector<double>& row_out,
                                        int& label_out) const {
  FROTE_CHECK(bp_slot < bp_->indices.size());
  if (bp_->indices.size() < 2) return false;
  const std::size_t base_idx = bp_->indices[bp_slot];
  const auto base = data_->row(base_idx);

  // k nearest neighbours *within the rule's base population* (they satisfy
  // the same possibly-relaxed rule — difference 1 from SMOTE).
  const std::size_t k = std::min(config_.k, bp_->indices.size() - 1);
  auto found = knn_->query(base, k + 1);
  std::vector<std::span<const double>> neighbor_rows;
  for (const auto& nb : found) {
    const std::size_t ds_idx = knn_->dataset_index(nb.index);
    if (ds_idx == base_idx) continue;
    neighbor_rows.push_back(data_->row(ds_idx));
    if (neighbor_rows.size() == k) break;
  }
  if (neighbor_rows.empty()) return false;
  const auto neighbor = neighbor_rows[rng.index(neighbor_rows.size())];

  row_out.resize(data_->num_features());
  for (std::size_t f = 0; f < row_out.size(); ++f) {
    if (data_->schema().feature(f).is_categorical()) {
      row_out[f] = categorical_value(f, base[f], neighbor_rows, rng);
    } else {
      row_out[f] = numeric_value(f, base[f], neighbor[f], rng);
    }
  }

  // Difference 2 from SMOTE: the instance must satisfy the original,
  // unrelaxed rule. Construction guarantees the clause; exclusions added by
  // conflict resolution can still reject (rare) — skip those instances.
  if (!rule_->covers(row_out)) return false;

  label_out = sample_label(data_->label(base_idx), rng);
  return true;
}

}  // namespace frote
