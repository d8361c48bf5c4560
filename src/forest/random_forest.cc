#include "forest/random_forest.h"

#include <cassert>
#include <cmath>

#include "common/mutex.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "predict/batch_predictor.h"
#include "predict/flat_cache.h"

namespace treewm::forest {

Status ForestConfig::Validate() const {
  if (num_trees == 0) return Status::InvalidArgument("num_trees must be >= 1");
  if (feature_fraction < 0.0 || feature_fraction > 1.0) {
    return Status::InvalidArgument("feature_fraction must be in [0,1]");
  }
  return tree.Validate();
}

namespace {

/// Number of features each tree sees: fraction of d, or sqrt(d) when 0.
size_t FeaturesPerTree(double fraction, size_t d) {
  size_t k;
  if (fraction <= 0.0) {
    k = static_cast<size_t>(std::llround(std::sqrt(static_cast<double>(d))));
  } else {
    k = static_cast<size_t>(std::llround(fraction * static_cast<double>(d)));
  }
  if (k < 1) k = 1;
  if (k > d) k = d;
  return k;
}

}  // namespace

Result<RandomForest> RandomForest::Fit(
    const data::Dataset& dataset, const std::vector<double>& weights,
    const ForestConfig& config, std::shared_ptr<const tree::SortedColumns> sorted) {
  TREEWM_RETURN_IF_ERROR(config.Validate());
  if (dataset.num_rows() == 0) {
    return Status::InvalidArgument("cannot fit a forest on an empty dataset");
  }
  // Checked here (not just per tree) so a bad weight vector fails before any
  // column sort or thread fan-out happens.
  if (!weights.empty() && weights.size() != dataset.num_rows()) {
    return Status::InvalidArgument(
        StrFormat("weights size %zu != rows %zu", weights.size(), dataset.num_rows()));
  }
  TREEWM_RETURN_IF_ERROR(tree::ValidateColumnsMatch(sorted.get(), dataset));

  const size_t d = dataset.num_features();
  const size_t features_per_tree = FeaturesPerTree(config.feature_fraction, d);

  // Pre-draw every tree's feature subset so parallel scheduling cannot
  // change results.
  Rng rng(config.seed);
  std::vector<std::vector<int>> subsets(config.num_trees);
  for (auto& subset : subsets) {
    std::vector<size_t> picked = rng.SampleWithoutReplacement(d, features_per_tree);
    subset.reserve(picked.size());
    for (size_t f : picked) subset.push_back(static_cast<int>(f));
  }

  RandomForest forest;
  forest.num_features_ = d;
  forest.trees_.resize(config.num_trees, tree::DecisionTree::FromNodes(
                                             {tree::TreeNode{-1, 0, -1, -1, +1}}, d)
                                             .MoveValue());

  ThreadPool* pool = nullptr;
  std::unique_ptr<ThreadPool> local_pool;
  if (config.num_threads == 0) {
    pool = &ThreadPool::Global();
  } else if (config.num_threads > 1) {
    local_pool = std::make_unique<ThreadPool>(config.num_threads);
    pool = local_pool.get();
  }

  // One column sort per dataset, shared immutably across all workers; every
  // tree's TrainerCore copies just its subset's presorted columns from it.
  if (sorted == nullptr) {
    sorted = tree::SortedColumns::Build(dataset);
    TREEWM_RETURN_IF_ERROR(sorted->status());
  }

  Mutex error_mutex;
  Status first_error;  // guarded by error_mutex inside the fan-out
  ParallelFor(pool, config.num_trees, [&](size_t t) {
    Result<tree::DecisionTree> fitted = tree::DecisionTree::Fit(
        dataset, weights, config.tree, subsets[t], sorted.get());
    if (fitted.ok()) {
      forest.trees_[t] = std::move(fitted).MoveValue();
    } else {
      MutexLock lock(&error_mutex);
      if (first_error.ok()) first_error = fitted.status();
    }
  });
  if (!first_error.ok()) return first_error;
  return forest;
}

Result<RandomForest> RandomForest::FromTrees(std::vector<tree::DecisionTree> trees) {
  if (trees.empty()) return Status::InvalidArgument("forest needs at least one tree");
  const size_t d = trees.front().num_features();
  for (const auto& t : trees) {
    if (t.num_features() != d) {
      return Status::InvalidArgument("trees disagree on num_features");
    }
  }
  RandomForest forest;
  forest.trees_ = std::move(trees);
  forest.num_features_ = d;
  return forest;
}

int RandomForest::Predict(std::span<const float> row) const {
  int vote_sum = 0;
  for (const auto& t : trees_) vote_sum += t.Predict(row);
  return vote_sum >= 0 ? data::kPositive : data::kNegative;
}

std::vector<int> RandomForest::PredictAll(std::span<const float> row) const {
  std::vector<int> votes(trees_.size());
  for (size_t t = 0; t < trees_.size(); ++t) votes[t] = trees_[t].Predict(row);
  return votes;
}

// All batch paths route through the flat engine (scalar per-row Predict /
// PredictAll above remain the reference; see predict/reference.h).

std::shared_ptr<const predict::FlatEnsemble> RandomForest::Flat() const {
  return predict::LazyFlat(&flat_cache_, [this] {
    return predict::FlatEnsemble::FromClassificationTrees(trees_);
  });
}

std::vector<int> RandomForest::PredictBatch(const data::Dataset& dataset) const {
  return predict::BatchPredictor(Flat()).PredictLabels(dataset);
}

predict::VoteMatrix RandomForest::PredictAllVotes(const data::Dataset& dataset) const {
  return predict::BatchPredictor(Flat()).PredictAllVotes(dataset);
}

double RandomForest::Accuracy(const data::Dataset& dataset) const {
  return predict::BatchPredictor(Flat()).LabelAccuracy(dataset);
}

std::vector<double> RandomForest::TreeDepths() const {
  std::vector<double> out(trees_.size());
  for (size_t t = 0; t < trees_.size(); ++t) {
    out[t] = static_cast<double>(trees_[t].Depth());
  }
  return out;
}

std::vector<double> RandomForest::TreeLeafCounts() const {
  std::vector<double> out(trees_.size());
  for (size_t t = 0; t < trees_.size(); ++t) {
    out[t] = static_cast<double>(trees_[t].NumLeaves());
  }
  return out;
}

JsonValue RandomForest::ToJson() const {
  JsonValue out = JsonValue::MakeObject();
  out.Set("num_features", JsonValue(num_features_));
  JsonValue trees = JsonValue::MakeArray();
  for (const auto& t : trees_) trees.Append(t.ToJson());
  out.Set("trees", std::move(trees));
  return out;
}

Result<RandomForest> RandomForest::FromJson(const JsonValue& json) {
  if (!json.is_object()) return Status::ParseError("forest JSON must be an object");
  TREEWM_ASSIGN_OR_RETURN(const JsonValue* trees_json, json.Get("trees"));
  if (!trees_json->is_array() || trees_json->AsArray().empty()) {
    return Status::ParseError("'trees' must be a non-empty array");
  }
  std::vector<tree::DecisionTree> trees;
  trees.reserve(trees_json->AsArray().size());
  for (const JsonValue& tree_json : trees_json->AsArray()) {
    TREEWM_ASSIGN_OR_RETURN(tree::DecisionTree t, tree::DecisionTree::FromJson(tree_json));
    trees.push_back(std::move(t));
  }
  return FromTrees(std::move(trees));
}

}  // namespace treewm::forest
