// SessionWorkspace — the reusable loop state of one FROTE editing session
// (docs/DESIGN.md §5).
//
// Algorithm 1 re-derives several artefacts from D̂ every iteration even
// though D̂ only changes on *accepted* steps, and then only by an appended
// tail: the fitted SMOTE-NC distance, the kNN index over D̂, the current
// model's predictions, the IP selector's borderline weights, and the
// per-rule constrained generators. The workspace owns all of them, keyed by
// a cheap dataset snapshot (uid / append_epoch / row count), so
//   - rejected iterations reuse everything (the "reject fast-path"),
//   - accepted iterations refresh incrementally: column moments absorb only
//     the appended rows (bit-identical to a full refit, see ColumnMoments),
//     and the kNN index absorbs the batch via KnnIndex::try_append instead
//     of being rebuilt.
// Every cache read is bit-identical to recomputing from scratch — the
// determinism suites (test_determinism / test_engine_api / test_workspace)
// lock that equivalence.
//
// Ownership: a Session owns one workspace; standalone callers (benchmarks,
// custom drivers) may own one and pass it to IpSelector::select /
// GenerationContext. The workspace stores raw pointers into the bound
// dataset and the caller's BasePopulation, so it must not outlive them.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "frote/core/generate.hpp"
#include "frote/knn/knn.hpp"
#include "frote/metrics/metrics.hpp"
#include "frote/opt/ip.hpp"

namespace frote {

/// One row's cached neighbourhood (docs/DESIGN.md §10): the first
/// min(k+1, n) entries of `list` are bit-identical to
/// index().query_squared(row, k+1) — ascending (squared distance, dataset
/// row index) — and every dataset row NOT in the list is provably at least
/// `outside_bound` away (squared). The bound is what lets an accepted batch
/// update the list by scoring only (list ∪ appended rows) instead of
/// re-querying the whole index. `list` keeps a few candidate entries past
/// the exact prefix (certification headroom — the bound starts further
/// out); consumers must treat entries beyond k+1 as internal.
struct RowNeighborhood {
  std::vector<Neighbor> list;
  double outside_bound = std::numeric_limits<double>::infinity();
};

/// Cheap identity of a dataset state: same uid + append_epoch + row count
/// implies every row a consumer absorbed is still byte-identical (staging a
/// tail and rolling it back returns to the same snapshot).
struct DatasetSnapshot {
  std::uint64_t uid = 0;
  std::uint64_t append_epoch = 0;
  std::size_t rows = 0;
  bool operator==(const DatasetSnapshot&) const = default;
};

inline DatasetSnapshot snapshot_of(const Dataset& data) {
  return {data.uid(), data.append_epoch(), data.size()};
}

/// How IpSelector::select resolved IP (5), one count per selection.
/// Exactly one of root_integral / branch_and_bound / greedy_repair moves
/// per selection; lp_failures and node_limit say why a search came up
/// short. Observability only: never serialised into results, checkpoints
/// or transcripts.
struct IpSolveCounts {
  std::uint64_t root_integral = 0;     // root LP relaxation already 0/1
  std::uint64_t branch_and_bound = 0;  // 0/1 only after branching
  std::uint64_t greedy_repair = 0;     // no 0/1 solution: greedy bounds
  std::uint64_t lp_failures = 0;       // node LPs with no answer (IpResult)
  std::uint64_t node_limit = 0;        // searches cut by IpConfig::max_nodes
};

class SessionWorkspace {
 public:
  SessionWorkspace() = default;
  explicit SessionWorkspace(int threads) : threads_(threads) {}

  /// Threads for the hot paths the workspace serves (kNN scans, batch
  /// predictions); 0 ⇒ FROTE_NUM_THREADS. Deterministic for every value.
  int threads() const { return threads_; }

  /// Bind to (or refresh against) the committed state of `data`: absorbs
  /// appended rows into the column moments and refits the distance. Binding
  /// a different dataset, or one whose existing rows changed
  /// (append_epoch), drops every cache and refits from scratch.
  void bind(const Dataset& data);
  bool bound() const { return data_ != nullptr; }
  const Dataset& data() const {
    FROTE_CHECK_MSG(data_ != nullptr, "workspace not bound");
    return *data_;
  }

  /// The SMOTE-NC distance fitted on the bound dataset — bit-identical to
  /// MixedDistance::fit(data) at every bind point.
  const MixedDistance& distance() const {
    FROTE_CHECK_MSG(distance_valid_, "workspace distance not fitted");
    return distance_;
  }

  /// Full-dataset kNN index, built lazily on first use and maintained via
  /// KnnIndex::try_append across binds. Query results are always
  /// bit-identical to make_knn_index over the bound dataset.
  KnnIndex& index();

  /// Owner-managed stamp of the model whose derived caches (predictions,
  /// IP weights) are valid; bump it whenever the model is retrained.
  void set_model_stamp(std::uint64_t stamp);
  std::uint64_t model_stamp() const { return model_stamp_; }

  /// Predicted-label cache slot (see PredictionCache); the Ĵ evaluation
  /// fills it, the IP selector reads it.
  PredictionCache& predictions() { return predictions_; }

  /// IP selection weights cached for (bound snapshot, model stamp, rows);
  /// nullptr on miss.
  const std::vector<double>* cached_weights(
      const std::vector<std::size_t>& rows) const;
  void store_weights(const std::vector<std::size_t>& rows,
                     std::vector<double> weights);

  /// Exact (k+1)-nearest neighbourhoods of each `rows[i]` over the bound
  /// dataset — the first min(k+1, n) entries of out[i]->list are
  /// bit-identical to index().query_squared(data().row(rows[i]), k+1); the
  /// list may carry extra candidate entries (see RowNeighborhood).
  /// Maintained incrementally: after an accepted
  /// batch, a row whose certified bound still separates its kept list from
  /// the rest of the dataset is updated by scoring only list ∪ appended
  /// rows; rows whose certificate fails (or that are new to the cache) pay
  /// one real index query. Returned pointers stay valid until the next
  /// neighborhoods()/bind() call. `rows` may contain duplicates.
  std::vector<const RowNeighborhood*> neighborhoods(
      const std::vector<std::size_t>& rows, std::size_t k);

  /// How many real index queries neighborhoods() has issued since this
  /// workspace was constructed — the observability hook the incremental
  /// tests use to prove the fast path actually ran.
  std::uint64_t neighborhood_queries() const { return nbr_queries_; }

  /// How the IP selections served by this workspace were resolved since it
  /// was constructed; IpSelector::select records each solve.
  const IpSolveCounts& ip_solves() const { return ip_solves_; }
  void record_ip_solve(const IpResult& result);

  /// Per-rule constrained generator, cached until the bound snapshot moves.
  /// `rule` / `bp` must be the same objects across calls for a given bound
  /// snapshot (the Session's rule set and base population).
  RuleConstrainedGenerator& generator(std::size_t rule_index,
                                      const FeedbackRule& rule,
                                      const RuleBasePopulation& bp,
                                      const GenerateConfig& config);

 private:
  const Dataset* data_ = nullptr;
  DatasetSnapshot bound_;

  ColumnMoments moments_;
  MixedDistance distance_;
  bool distance_valid_ = false;

  std::unique_ptr<KnnIndex> index_;
  DatasetSnapshot index_snapshot_;
  int threads_ = 0;

  std::uint64_t model_stamp_ = 0;
  PredictionCache predictions_;

  std::vector<double> weights_;
  std::vector<std::size_t> weight_rows_;
  DatasetSnapshot weights_snapshot_;
  std::uint64_t weights_model_stamp_ = 0;
  bool weights_valid_ = false;

  /// Neighbourhood cache (see neighborhoods()). The slot stamp marks which
  /// refresh generation last touched an entry, so one pass can tell
  /// duplicates, already-current entries, and stale entries apart without a
  /// per-call set. The private PackedRows mirrors the bound dataset under
  /// nbr_distance_ — packing and squared() are byte-for-byte the engines'
  /// own, which is what makes incrementally computed distances bit-identical
  /// to index queries.
  struct NbrSlot {
    RowNeighborhood hood;
    std::uint64_t stamp = 0;
  };
  std::unordered_map<std::size_t, NbrSlot> nbr_entries_;
  DatasetSnapshot nbr_snapshot_;
  MixedDistance nbr_distance_;
  std::unique_ptr<detail::PackedRows> nbr_packed_;
  std::vector<std::size_t> nbr_packed_ids_;  // identity [0, rows)
  std::size_t nbr_k_ = 0;
  std::uint64_t nbr_stamp_ = 0;
  std::uint64_t nbr_queries_ = 0;
  bool nbr_valid_ = false;

  IpSolveCounts ip_solves_;

  std::vector<std::unique_ptr<RuleConstrainedGenerator>> generators_;
  DatasetSnapshot generators_snapshot_;
};

}  // namespace frote
