// Property tests for the sort-once training engine: the presorted
// column-index trainer must produce BIT-IDENTICAL trees to the retained
// naive reference (per-node re-sorting splitter), across duplicate feature
// values, weighted rows, feature subsets, min_samples_leaf edges, constant
// features, both criteria, best-first growth and regression targets;
// forests must be identical at every thread count; and every training path
// must reject NaN features. See src/tree/README.md for the equivalence
// contract.

#include "tree/trainer_core.h"

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "boosting/gbdt.h"
#include "common/rng.h"
#include "data/synthetic.h"
#include "forest/random_forest.h"
#include "tree/decision_tree.h"
#include "tree/sorted_columns.h"

namespace treewm::tree {
namespace {

/// The orderable float-domain edges a [0, 1] grid never reaches: signed
/// zeros, the two smallest denormals, half the smallest normal, the smallest
/// normal, the finite extremes and the infinities, each with both signs.
constexpr float kEdgeValues[] = {
    0.0f,
    -0.0f,
    std::numeric_limits<float>::denorm_min(),
    -std::numeric_limits<float>::denorm_min(),
    2 * std::numeric_limits<float>::denorm_min(),
    -2 * std::numeric_limits<float>::denorm_min(),
    std::numeric_limits<float>::min() / 2,
    -std::numeric_limits<float>::min() / 2,
    std::numeric_limits<float>::min(),
    -std::numeric_limits<float>::min(),
    std::numeric_limits<float>::max(),
    -std::numeric_limits<float>::max(),
    std::numeric_limits<float>::infinity(),
    -std::numeric_limits<float>::infinity(),
};

/// A dataset drawn on a coarse value grid — duplicate feature values (tied
/// runs) are the norm, not the exception, which is exactly what stresses the
/// stable-tie accumulation contract. With `edge_fraction` > 0 each cell is
/// instead drawn from kEdgeValues with that probability.
data::Dataset MakeGridDataset(uint64_t seed, size_t rows, size_t features,
                              uint64_t levels, double edge_fraction = 0.0) {
  Rng rng(seed);
  data::Dataset d(features);
  std::vector<float> row(features);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < features; ++j) {
      if (edge_fraction > 0.0 && rng.Bernoulli(edge_fraction)) {
        row[j] = kEdgeValues[rng.UniformInt(std::size(kEdgeValues))];
        continue;
      }
      row[j] = static_cast<float>(rng.UniformInt(levels)) /
               static_cast<float>(levels > 1 ? levels - 1 : 1);
    }
    const int label = rng.Bernoulli(0.5) ? data::kPositive : data::kNegative;
    EXPECT_TRUE(d.AddRow(row, label).ok());
  }
  return d;
}

/// Random weight vectors exercising the FP-order-sensitive cases: empty
/// (unit), smooth random, and two-valued trigger-style (distinct weights
/// inside value-tied runs).
std::vector<double> MakeWeights(uint64_t seed, size_t rows, int kind) {
  if (kind == 0) return {};
  Rng rng(seed);
  std::vector<double> w(rows, 1.0);
  for (size_t i = 0; i < rows; ++i) {
    w[i] = kind == 1 ? 0.25 + rng.UniformReal() * 4.0
                     : (rng.Bernoulli(0.2) ? 7.3 : 1.0);
  }
  return w;
}

bool RegressionTreesIdentical(const boosting::RegressionTree& a,
                              const boosting::RegressionTree& b) {
  if (a.nodes().size() != b.nodes().size()) return false;
  for (size_t i = 0; i < a.nodes().size(); ++i) {
    const auto& na = a.nodes()[i];
    const auto& nb = b.nodes()[i];
    if (na.feature != nb.feature || na.left != nb.left || na.right != nb.right) {
      return false;
    }
    if (na.feature != -1 && na.threshold != nb.threshold) return false;
    if (na.feature == -1 && na.value != nb.value) return false;  // bit equality
  }
  return true;
}

TEST(SortedColumnsTest, ColumnsAreSortedWithStableTies) {
  data::Dataset d = MakeGridDataset(3, 200, 4, 8);
  auto sorted = SortedColumns::Build(d);
  ASSERT_EQ(sorted->num_rows(), 200u);
  ASSERT_EQ(sorted->num_features(), 4u);
  for (size_t f = 0; f < 4; ++f) {
    auto col = sorted->Column(f);
    ASSERT_EQ(col.size(), 200u);
    std::vector<bool> seen(200, false);
    for (size_t i = 0; i < col.size(); ++i) {
      EXPECT_EQ(col[i].value, d.At(col[i].row, f));
      EXPECT_FALSE(seen[col[i].row]);
      seen[col[i].row] = true;
      if (i > 0) {
        EXPECT_LE(col[i - 1].value, col[i].value);
        if (col[i - 1].value == col[i].value) {
          EXPECT_LT(col[i - 1].row, col[i].row);  // ties ascending by row
        }
      }
    }
  }
}

TEST(SortedColumnsTest, ParallelBuildIsBitIdenticalAtEveryThreadCount) {
  // The per-feature sorts are independent, so fanning them out across a pool
  // must reproduce the serial build exactly — same rows, same values, same
  // tie order — at every pool width (including widths above the feature
  // count, which leave some workers idle).
  data::Dataset d = MakeGridDataset(811, 400, 6, 5);  // coarse grid: tie-heavy
  auto serial = SortedColumns::Build(d, nullptr);
  for (size_t threads : {1u, 2u, 5u}) {
    ThreadPool pool(threads);
    auto parallel = SortedColumns::Build(d, &pool);
    ASSERT_EQ(parallel->num_features(), serial->num_features());
    for (size_t f = 0; f < serial->num_features(); ++f) {
      auto a = serial->Column(f);
      auto b = parallel->Column(f);
      ASSERT_EQ(a.size(), b.size());
      for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].row, b[i].row) << "threads=" << threads << " f=" << f;
        EXPECT_EQ(a[i].value, b[i].value) << "threads=" << threads << " f=" << f;
      }
    }
  }
  // The default Build (global pool) matches too.
  auto pooled = SortedColumns::Build(d);
  for (size_t f = 0; f < serial->num_features(); ++f) {
    auto a = serial->Column(f);
    auto b = pooled->Column(f);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].row, b[i].row);
      EXPECT_EQ(a[i].value, b[i].value);
    }
  }
}

TEST(TrainerCoreTest, ApplySplitKeepsEveryColumnSortedAndTieStable) {
  data::Dataset d = MakeGridDataset(5, 150, 3, 6);
  auto sorted = SortedColumns::Build(d);
  TrainerCore core(*sorted, {0, 1, 2}, /*with_identity=*/true);

  // Split the root on feature 1 at its median prefix.
  const size_t left_count = 70;
  const size_t mid = core.ApplySplit(0, 150, core.SlotOf(1), left_count);
  ASSERT_EQ(mid, left_count);

  // The left side is exactly the value-sorted prefix rows of feature 1.
  auto split_col = core.Column(core.SlotOf(1), 0, mid);
  std::vector<bool> is_left(150, false);
  for (const ColumnEntry& e : split_col) is_left[e.row] = true;

  for (size_t slot = 0; slot < 3; ++slot) {
    for (auto [begin, end] : {std::pair<size_t, size_t>{0, mid},
                              std::pair<size_t, size_t>{mid, 150}}) {
      auto col = core.Column(slot, begin, end);
      size_t members = 0;
      for (size_t i = 0; i < col.size(); ++i) {
        EXPECT_EQ(is_left[col[i].row], begin == 0);
        ++members;
        if (i > 0) {
          EXPECT_LE(col[i - 1].value, col[i].value);
          if (col[i - 1].value == col[i].value) {
            EXPECT_LT(col[i - 1].row, col[i].row);
          }
        }
      }
      EXPECT_EQ(members, end - begin);
    }
  }
  // Identity column: each side in ascending original-row order.
  for (auto [begin, end] : {std::pair<size_t, size_t>{0, mid},
                            std::pair<size_t, size_t>{mid, 150}}) {
    auto ids = core.Members(begin, end);
    for (size_t i = 1; i < ids.size(); ++i) {
      EXPECT_LT(ids[i - 1].row, ids[i].row);
    }
  }
}

TEST(TrainerEquivalenceTest, TreesMatchReferenceAcrossRandomizedSettings) {
  // The headline property: for every combination of tie density, weight
  // style, criterion, leaf cap and depth cap, the sort-once trainer emits
  // the same node array (same features, bit-identical thresholds, same
  // child indices, same labels) as the retained naive reference.
  size_t cases = 0;
  for (double edges : {0.0, 0.2}) {
    for (uint64_t levels : {4u, 16u, 1u << 20}) {
      for (int weight_kind : {0, 1, 2}) {
        for (SplitCriterion criterion :
             {SplitCriterion::kGini, SplitCriterion::kEntropy}) {
          for (int limits = 0; limits < 3; ++limits) {
            const uint64_t seed = 100 + cases;
            data::Dataset d = MakeGridDataset(seed, 180, 5, levels, edges);
            std::vector<double> w = MakeWeights(seed * 7 + 1, 180, weight_kind);
            TreeConfig config;
            config.criterion = criterion;
            if (limits == 1) {
              config.max_leaf_nodes = 9;  // best-first growth
              config.min_samples_leaf = 3;
            } else if (limits == 2) {
              config.max_depth = 4;
              config.min_samples_split = 8;
            }
            auto fast = DecisionTree::Fit(d, w, config);
            auto reference = DecisionTree::FitReference(d, w, config);
            ASSERT_TRUE(fast.ok() && reference.ok());
            EXPECT_TRUE(fast.value().StructurallyEqual(reference.value()))
                << "edges=" << edges << " levels=" << levels
                << " weights=" << weight_kind
                << " criterion=" << static_cast<int>(criterion)
                << " limits=" << limits;
            ++cases;
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 108u);
}

TEST(TrainerEquivalenceTest, WeightedTieRunsMatchBitForBit) {
  // Distinct weights inside value-tied runs are the FP-order-sensitive case
  // the stable-tie contract exists for: both engines must accumulate the
  // tied run in ascending row order or gains drift by ulps.
  data::Dataset d = MakeGridDataset(77, 300, 3, 3);  // 3 levels -> huge tie runs
  Rng rng(78);
  std::vector<double> w(300);
  for (auto& x : w) x = 0.1 + rng.UniformReal() * 9.9;
  TreeConfig config;
  auto fast = DecisionTree::Fit(d, w, config).MoveValue();
  auto reference = DecisionTree::FitReference(d, w, config).MoveValue();
  EXPECT_TRUE(fast.StructurallyEqual(reference));
}

TEST(TrainerEquivalenceTest, ConstantAndNearConstantFeatures) {
  data::Dataset d(4);
  Rng rng(9);
  for (size_t i = 0; i < 120; ++i) {
    // f0 constant, f1 constant except one row, f2/f3 informative.
    std::vector<float> row{0.5f, i == 57 ? 0.9f : 0.2f,
                           static_cast<float>(rng.UniformReal()),
                           static_cast<float>(rng.UniformInt(4)) / 3.0f};
    const int label = row[2] + row[3] > 0.8f ? data::kPositive : data::kNegative;
    ASSERT_TRUE(d.AddRow(row, label).ok());
  }
  for (size_t msl : {1u, 2u, 10u}) {
    TreeConfig config;
    config.min_samples_leaf = msl;
    auto fast = DecisionTree::Fit(d, {}, config).MoveValue();
    auto reference = DecisionTree::FitReference(d, {}, config).MoveValue();
    EXPECT_TRUE(fast.StructurallyEqual(reference)) << "min_samples_leaf=" << msl;
  }
}

TEST(TrainerEquivalenceTest, FeatureSubsetOrderIsRespected) {
  // Sweep order = subset order (it breaks equal-gain ties), including
  // subsets given in non-ascending order as RandomForest draws them.
  data::Dataset d = MakeGridDataset(31, 160, 6, 8);
  for (const std::vector<int>& subset :
       {std::vector<int>{3, 0, 5}, std::vector<int>{5, 4, 3, 2, 1, 0},
        std::vector<int>{1}}) {
    auto fast = DecisionTree::Fit(d, {}, TreeConfig{}, subset).MoveValue();
    auto reference =
        DecisionTree::FitReference(d, {}, TreeConfig{}, subset).MoveValue();
    EXPECT_TRUE(fast.StructurallyEqual(reference));
  }
}

TEST(TrainerEquivalenceTest, PrebuiltColumnsMatchInternalBuild) {
  data::Dataset d = MakeGridDataset(41, 140, 4, 10);
  auto sorted = SortedColumns::Build(d);
  auto with = DecisionTree::Fit(d, {}, TreeConfig{}, {}, sorted.get()).MoveValue();
  auto without = DecisionTree::Fit(d, {}, TreeConfig{}).MoveValue();
  EXPECT_TRUE(with.StructurallyEqual(without));
}

TEST(TrainerEquivalenceTest, MismatchedSortedColumnsAreRejected) {
  data::Dataset d = MakeGridDataset(43, 100, 4, 10);
  data::Dataset other = MakeGridDataset(44, 60, 4, 10);
  auto wrong = SortedColumns::Build(other);
  EXPECT_FALSE(DecisionTree::Fit(d, {}, TreeConfig{}, {}, wrong.get()).ok());
  EXPECT_FALSE(boosting::RegressionTree::Fit(d, std::vector<double>(100, 0.5),
                                             boosting::RegressionTreeConfig{},
                                             wrong.get())
                   .ok());
  forest::ForestConfig fc;
  fc.num_trees = 2;
  EXPECT_FALSE(forest::RandomForest::Fit(d, {}, fc, wrong).ok());
}

TEST(TrainerEquivalenceTest, RegressionTreesMatchReference) {
  for (double edges : {0.0, 0.2}) {
    for (uint64_t levels : {3u, 12u, 1u << 20}) {
      for (size_t msl : {1u, 4u}) {
        const uint64_t seed = 200 + levels + msl;
        data::Dataset d = MakeGridDataset(seed, 220, 4, levels, edges);
        Rng rng(seed + 1);
        std::vector<double> targets(220);
        for (auto& t : targets) t = rng.Gaussian();
        boosting::RegressionTreeConfig config;
        config.max_depth = 5;
        config.min_samples_leaf = msl;
        auto fast = boosting::RegressionTree::Fit(d, targets, config).MoveValue();
        auto reference =
            boosting::RegressionTree::FitReference(d, targets, config).MoveValue();
        EXPECT_TRUE(RegressionTreesIdentical(fast, reference))
            << "edges=" << edges << " levels=" << levels << " msl=" << msl;
      }
    }
  }
}

TEST(TrainerEquivalenceTest, ForestsAreIdenticalAtEveryThreadCount) {
  data::Dataset d = MakeGridDataset(401, 200, 6, 7);
  std::vector<double> weights = MakeWeights(402, 200, 2);
  forest::ForestConfig config;
  config.num_trees = 6;
  config.feature_fraction = 0.5;
  config.seed = 17;
  config.num_threads = 1;
  auto serial = forest::RandomForest::Fit(d, {}, config).MoveValue();
  auto weighted_serial = forest::RandomForest::Fit(d, weights, config).MoveValue();

  for (size_t threads : {2u, 5u}) {
    config.num_threads = threads;
    auto pooled = forest::RandomForest::Fit(d, {}, config).MoveValue();
    ASSERT_EQ(pooled.num_trees(), serial.num_trees());
    for (size_t t = 0; t < pooled.num_trees(); ++t) {
      EXPECT_TRUE(pooled.trees()[t].StructurallyEqual(serial.trees()[t]))
          << "threads=" << threads << " tree=" << t;
    }
    auto pooled_weighted = forest::RandomForest::Fit(d, weights, config).MoveValue();
    for (size_t t = 0; t < pooled_weighted.num_trees(); ++t) {
      EXPECT_TRUE(
          pooled_weighted.trees()[t].StructurallyEqual(weighted_serial.trees()[t]))
          << "weighted threads=" << threads << " tree=" << t;
    }
  }
}

TEST(TrainerEquivalenceTest, RealisticDatasetsMatchToo) {
  // Not just adversarial grids: the paper's synthetic stand-ins flow through
  // the same contract (blobs are continuous; ijcnn1-like is imbalanced).
  for (int which : {0, 1}) {
    data::Dataset d = which == 0 ? data::synthetic::MakeBlobs(501, 250, 6, 1.1)
                                 : data::synthetic::MakeIjcnn1Like(502, 250);
    TreeConfig config;
    config.max_leaf_nodes = 24;
    auto fast = DecisionTree::Fit(d, {}, config).MoveValue();
    auto reference = DecisionTree::FitReference(d, {}, config).MoveValue();
    EXPECT_TRUE(fast.StructurallyEqual(reference)) << "dataset " << which;
  }
}

// NaN has no order: sorting a column holding one with `a.value < b.value`
// is undefined behaviour and silently broke exact == reference. Every
// training path must fail closed, naming the first NaN; ±inf and -0.0 order
// fine and stay accepted.
TEST(TrainerInputTest, NanTrainingDataIsRejectedWithItsPosition) {
  const data::Dataset clean = MakeGridDataset(501, 60, 4, 6);
  data::Dataset d(4);
  for (size_t i = 0; i < clean.num_rows(); ++i) {
    std::vector<float> row(clean.Row(i).begin(), clean.Row(i).end());
    if (i % 5 == 2) row[i % 4] = std::numeric_limits<float>::quiet_NaN();
    ASSERT_TRUE(d.AddRow(row, clean.Label(i)).ok());
  }
  const auto expect_rejected = [](const Status& status, const char* path) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << path;
    EXPECT_NE(status.message().find("row 2, column 2"), std::string::npos)
        << path << ": " << status.ToString();
  };

  forest::ForestConfig forest_config;
  forest_config.num_trees = 4;
  expect_rejected(forest::RandomForest::Fit(d, {}, forest_config).status(),
                  "RandomForest::Fit");
  expect_rejected(forest::RandomForest::Fit(d, {}, forest_config,
                                            SortedColumns::Build(d))
                      .status(),
                  "RandomForest::Fit (prebuilt columns)");
  boosting::GbdtConfig gbdt_config;
  gbdt_config.num_trees = 4;
  expect_rejected(boosting::Gbdt::Fit(d, gbdt_config).status(), "Gbdt::Fit");
  expect_rejected(DecisionTree::Fit(d, {}, TreeConfig{}).status(),
                  "DecisionTree::Fit");
  expect_rejected(DecisionTree::FitReference(d, {}, TreeConfig{}).status(),
                  "DecisionTree::FitReference");
  const std::vector<double> targets(d.num_rows(), 0.5);
  expect_rejected(
      boosting::RegressionTree::FitReference(d, targets, {}).status(),
      "RegressionTree::FitReference");

  // Infinities and negative zero are ordered: exact == reference holds.
  data::Dataset edges(4);
  const float inf = std::numeric_limits<float>::infinity();
  for (size_t i = 0; i < clean.num_rows(); ++i) {
    std::vector<float> row(clean.Row(i).begin(), clean.Row(i).end());
    if (i % 5 == 2) row[i % 4] = i % 3 == 0 ? inf : (i % 3 == 1 ? -inf : -0.0f);
    ASSERT_TRUE(edges.AddRow(row, clean.Label(i)).ok());
  }
  auto fast = DecisionTree::Fit(edges, {}, TreeConfig{});
  auto reference = DecisionTree::FitReference(edges, {}, TreeConfig{});
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  EXPECT_TRUE(fast.value().StructurallyEqual(reference.value()));
}

}  // namespace
}  // namespace treewm::tree
