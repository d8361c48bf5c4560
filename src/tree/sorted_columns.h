// Per-feature presorted index columns — the sort-once substrate for tree
// training.
//
// Every trainer in the repo used to re-sort each (node, feature) pair from
// scratch, paying O(k·n log n) per node. SortedColumns sorts each feature
// column ONCE per dataset (ties broken by ascending row id, i.e. stably);
// tree induction then maintains node membership by stable in-place partition
// of the index arrays (see trainer_core.h), so every node's split sweep is a
// linear pass over presorted runs and no sort ever happens again.
//
// The object is immutable after Build and is shared across trees, boosting
// rounds and ThreadPool workers via shared_ptr, exactly the way FlatEnsemble
// images are shared on the inference side: the row set of a dataset is fixed
// for the lifetime of a forest fit, every tree of every GBDT stage, and —
// crucially for TrainWithTrigger — every weight-boosting round (sample
// weights never change the sort order).

#ifndef TREEWM_TREE_SORTED_COLUMNS_H_
#define TREEWM_TREE_SORTED_COLUMNS_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "data/dataset.h"

namespace treewm::tree {

/// One instance under one feature: the row id and its feature value, packed
/// so a split sweep reads contiguous 8-byte records instead of gathering
/// from the row-major dataset.
struct ColumnEntry {
  uint32_t row;
  float value;
};

/// Immutable per-feature sorted index columns for one dataset.
class SortedColumns {
 public:
  /// Sorts every feature column of `dataset` (ascending by value, ties by
  /// ascending row id). O(d·n log n), paid once per dataset. NaN has no
  /// order, so a dataset holding one is not sorted at all: the result
  /// carries a non-OK status() instead, which every trainer rejects. Fans the
  /// per-feature sorts out across the global ThreadPool — each task fills
  /// and sorts its own disjoint slab of the feature-major array, so the
  /// result is bit-identical at every thread count (regression-tested in
  /// tests/test_trainer_core.cc).
  static std::shared_ptr<const SortedColumns> Build(const data::Dataset& dataset);

  /// Same, on an explicit pool (nullptr = serial). Build(dataset) is
  /// Build(dataset, &ThreadPool::Global()).
  static std::shared_ptr<const SortedColumns> Build(const data::Dataset& dataset,
                                                    ThreadPool* pool);

  size_t num_rows() const { return num_rows_; }
  size_t num_features() const { return num_features_; }

  /// OK, or CheckOrderable's InvalidArgument for the source dataset (the
  /// columns are then unsorted and must not be trained on).
  const Status& status() const { return status_; }

  /// Sorted column of feature `f`: n entries, ascending by value, value ties
  /// in ascending row order.
  std::span<const ColumnEntry> Column(size_t f) const {
    return {entries_.data() + f * num_rows_, num_rows_};
  }

 private:
  SortedColumns() = default;

  size_t num_rows_ = 0;
  size_t num_features_ = 0;
  Status status_;
  std::vector<ColumnEntry> entries_;  // feature-major, d × n
};

/// The split threshold between adjacent distinct sorted values lo < hi: their
/// midpoint, or lo when the midpoint is not below hi — values one ulp apart
/// round it up onto hi, and lo = -inf makes it NaN — so `x <= t` always puts
/// the lo run left and the hi run right. Every trainer and its reference
/// cut through this one formula, which keeps their thresholds bit-identical.
inline float MidpointThreshold(float lo, float hi) {
  const float t = lo + (hi - lo) * 0.5f;
  return t < hi ? t : lo;
}

/// InvalidArgument naming the first NaN of `dataset` (row-major order), else
/// OK. Every training path runs it once per dataset before it sorts a
/// column: `a.value < b.value` is no strict weak ordering once NaN
/// appears, so sorting would be undefined behaviour. ±inf and -0.0 order
/// fine and pass.
[[nodiscard]] Status CheckOrderable(const data::Dataset& dataset);

/// InvalidArgument unless `sorted` (when non-null) was built for a dataset
/// of exactly `dataset`'s shape and carries an OK status() — the one
/// contract every trainer that accepts prebuilt columns enforces.
[[nodiscard]] Status ValidateColumnsMatch(const SortedColumns* sorted,
                            const data::Dataset& dataset);

}  // namespace treewm::tree

#endif  // TREEWM_TREE_SORTED_COLUMNS_H_
