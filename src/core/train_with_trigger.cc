#include "core/train_with_trigger.h"

#include "common/logging.h"
#include "common/string_util.h"

namespace treewm::core {

bool AllTreesMatchTrigger(const forest::RandomForest& forest,
                          const data::Dataset& dataset,
                          const std::vector<size_t>& trigger_indices) {
  for (size_t idx : trigger_indices) {
    const auto row = dataset.Row(idx);
    const int target = dataset.Label(idx);
    for (const auto& t : forest.trees()) {
      if (t.Predict(row) != target) return false;
    }
  }
  return true;
}

Result<TriggerTrainingResult> TrainWithTrigger(
    const data::Dataset& dataset, const std::vector<size_t>& trigger_indices,
    const TriggerTrainingConfig& config) {
  if (trigger_indices.empty()) {
    return Status::InvalidArgument("trigger set must be non-empty");
  }
  for (size_t idx : trigger_indices) {
    if (idx >= dataset.num_rows()) {
      return Status::InvalidArgument(StrFormat("trigger index %zu out of range", idx));
    }
  }
  if (config.weight_increment <= 0.0) {
    return Status::InvalidArgument("weight_increment must be positive");
  }

  std::vector<double> weights(dataset.num_rows(), 1.0);  // Algorithm 1 line 3
  double trigger_weight = 1.0;

  // Sample weights never change the per-feature sort order, so the column
  // sort is paid once here and shared across EVERY weight-boosting retrain.
  // Validate the forest config first so a bad config fails before the sort.
  TREEWM_RETURN_IF_ERROR(config.forest.Validate());
  const std::shared_ptr<const tree::SortedColumns> sorted =
      tree::SortedColumns::Build(dataset);

  forest::ForestConfig forest_config = config.forest;
  TREEWM_ASSIGN_OR_RETURN(
      forest::RandomForest model,
      forest::RandomForest::Fit(dataset, weights, forest_config, sorted));

  TriggerTrainingResult result{std::move(model)};
  for (size_t round = 0; round < config.max_boost_rounds; ++round) {
    if (AllTreesMatchTrigger(result.forest, dataset, trigger_indices)) {
      result.converged = true;
      result.final_trigger_weight = trigger_weight;
      return result;
    }
    // Algorithm 1 lines 6-8: bump every trigger weight, retrain everything.
    trigger_weight += config.weight_increment;
    for (size_t idx : trigger_indices) weights[idx] = trigger_weight;
    ++result.boost_rounds;
    TREEWM_ASSIGN_OR_RETURN(
        result.forest,
        forest::RandomForest::Fit(dataset, weights, forest_config, sorted));
  }
  result.converged = AllTreesMatchTrigger(result.forest, dataset, trigger_indices);
  result.final_trigger_weight = trigger_weight;
  if (!result.converged) {
    LogWarning(StrFormat(
        "TrainWithTrigger: %zu rounds exhausted without full trigger agreement",
        config.max_boost_rounds));
  }
  return result;
}

}  // namespace treewm::core
