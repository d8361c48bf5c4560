// Random forest without bootstrap.
//
// Matches the model class of the paper (§3.2): every tree trains on the full
// training set (no bagging) restricted to a random subset of the features;
// the ensemble prediction aggregates individual votes, and — crucially for
// black-box watermark verification — the per-tree prediction sequence is
// exposed (the role R's `predict.all` plays in the paper).

#ifndef TREEWM_FOREST_RANDOM_FOREST_H_
#define TREEWM_FOREST_RANDOM_FOREST_H_

#include <memory>
#include <span>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "data/dataset.h"
#include "predict/flat_cache.h"
#include "predict/vote_matrix.h"
#include "tree/decision_tree.h"

namespace treewm::forest {

/// Forest-level hyper-parameters (contains the per-tree H of Algorithm 1).
struct ForestConfig {
  /// Number of trees m.
  size_t num_trees = 50;
  /// Per-tree induction hyper-parameters.
  tree::TreeConfig tree;
  /// Fraction of features each tree may use; 0 means sqrt(d)/d (the common
  /// random-forest default). Each tree draws its own subset.
  double feature_fraction = 0.0;
  /// Seed driving feature-subset draws (one fork per tree; training is
  /// deterministic regardless of thread scheduling).
  uint64_t seed = 1;
  /// Degrees of parallelism: 0 uses the process-global pool, 1 is serial.
  size_t num_threads = 0;

  [[nodiscard]] Status Validate() const;
};

/// An immutable trained forest.
class RandomForest {
 public:
  /// Trains `config.num_trees` trees on `dataset` with shared per-row
  /// `weights` (empty = all ones).
  ///
  /// Training runs on the sort-once column engine: each feature column of
  /// `dataset` is sorted once and the immutable SortedColumns is shared
  /// across the ThreadPool workers (like FlatEnsemble images on the
  /// inference side); each tree copies only its feature subset's columns.
  /// Pass a prebuilt `sorted` to amortize the sort across many fits on the
  /// same rows (weight-boosting rounds, grid-search points on one fold);
  /// nullptr builds it internally.
  [[nodiscard]] static Result<RandomForest> Fit(
      const data::Dataset& dataset, const std::vector<double>& weights,
      const ForestConfig& config,
      std::shared_ptr<const tree::SortedColumns> sorted = nullptr);

  /// Assembles a forest from pre-trained trees (Algorithm 1's interleave
  /// step). All trees must agree on num_features.
  [[nodiscard]] static Result<RandomForest> FromTrees(std::vector<tree::DecisionTree> trees);

  /// Majority-vote label for one instance; ties predict +1 (documented,
  /// deterministic).
  int Predict(std::span<const float> row) const;

  /// Per-tree prediction sequence for one instance (the `predict.all`
  /// behaviour watermark verification relies on).
  std::vector<int> PredictAll(std::span<const float> row) const;

  /// Majority-vote labels for every row.
  std::vector<int> PredictBatch(const data::Dataset& dataset) const;

  /// Per-tree predictions for every row as one flat row-major vote matrix —
  /// the hot-path shape hot consumers (verification scoring, witness
  /// validation) read in place.
  predict::VoteMatrix PredictAllVotes(const data::Dataset& dataset) const;

  /// Majority-vote accuracy on `dataset`.
  double Accuracy(const data::Dataset& dataset) const;

  /// Number of trees m.
  size_t num_trees() const { return trees_.size(); }

  /// Feature dimensionality d.
  size_t num_features() const { return num_features_; }

  const std::vector<tree::DecisionTree>& trees() const { return trees_; }

  /// Per-tree depths / leaf counts — the structural statistics the detection
  /// attack (§4.2.1) inspects.
  std::vector<double> TreeDepths() const;
  std::vector<double> TreeLeafCounts() const;

  /// Serialization.
  JsonValue ToJson() const;
  [[nodiscard]] static Result<RandomForest> FromJson(const JsonValue& json);

 private:
  RandomForest() = default;

  /// Packed inference image, built lazily on the first batch call and shared
  /// across calls (and copies) — trees_ is immutable after construction, so
  /// the cache can never go stale.
  std::shared_ptr<const predict::FlatEnsemble> Flat() const;

  std::vector<tree::DecisionTree> trees_;
  size_t num_features_ = 0;
  mutable predict::FlatCacheSlot flat_cache_;
};

}  // namespace treewm::forest

#endif  // TREEWM_FOREST_RANDOM_FOREST_H_
